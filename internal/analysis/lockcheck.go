package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck guards the host plane's mutexes (coordinator, monitor,
// telemetry): holding a sync.Mutex/RWMutex across a blocking operation
// — a channel op, time.Sleep, network or file I/O, a WaitGroup.Wait, or
// a call that transitively reaches one through the call graph — stalls
// every reader of that lock for the duration (a slow Prometheus scrape
// or JSONL sink must never freeze the streaming goroutine). It also
// flags re-acquiring a mutex already held (Go mutexes are not
// reentrant) and module-wide inconsistent lock-acquisition order (the
// classic AB/BA deadlock). The walk is lexical — statements are
// visited in source order and branch effects merge — so a conditional
// unlock can over- or under-approximate; waive a deliberate pattern
// (e.g. a writer whose whole purpose is serializing I/O) with
// //csecg:lockok.
var LockCheck = &Analyzer{
	Name:      "lockcheck",
	Doc:       "forbid blocking calls while a mutex is held; check lock ordering",
	RunModule: runLockCheck,
}

const lockSuggestion = "shrink the critical section: snapshot under the lock, release, then block; or waive a deliberate serializer with //csecg:lockok"

// lockMethod classifies sync.Mutex/RWMutex method calls.
type lockMethod int

const (
	lockNone lockMethod = iota
	lockAcquire
	lockRelease
)

// classifyLockCall reports whether call is a Lock/RLock/Unlock/RUnlock
// on a sync.Mutex or sync.RWMutex, and resolves the mutex to a stable
// identity object (the field or variable holding it).
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockMethod, types.Object, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockNone, nil, ""
	}
	var method lockMethod
	switch sel.Sel.Name {
	case "Lock", "RLock":
		method = lockAcquire
	case "Unlock", "RUnlock":
		method = lockRelease
	default:
		return lockNone, nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockNone, nil, ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return lockNone, nil, ""
	}
	obj := mutexIdentity(info, sel.X)
	return method, obj, exprString(sel.X)
}

// mutexIdentity resolves the expression holding the mutex to its
// variable or field object ("s.mu" → the mu field of S). nil when the
// expression is too dynamic to name.
func mutexIdentity(info *types.Info, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return mutexIdentity(info, e.X)
	}
	return nil
}

// ioInterfaceMethods are interface methods that mean "dynamic I/O of
// unknown latency" when dispatched through an io (or net/http)
// interface value.
var ioInterfaceMethods = map[string]bool{
	"Read": true, "Write": true, "Close": true, "ReadFrom": true,
	"WriteTo": true, "WriteString": true, "Flush": true,
}

// stdlibBlockingCall classifies calls into the standard library that
// can block for an unbounded time. It returns a human description or
// "".
func stdlibBlockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// Interface dispatch: io.Writer/io.Reader style methods on an
	// interface value are I/O of unknown latency.
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
			recvSig := fn.Type().(*types.Signature)
			if recvSig.Recv() != nil {
				if _, isIface := recvSig.Recv().Type().Underlying().(*types.Interface); isIface {
					p := fn.Pkg().Path()
					if (p == "io" || p == "net/http") && ioInterfaceMethods[fn.Name()] {
						return fmt.Sprintf("calling %s.%s through an %s interface (dynamic I/O)", exprString(sel.X), fn.Name(), p)
					}
				}
			}
		}
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	recvNamed := func() string {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return ""
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name()
		}
		return ""
	}
	switch {
	case pkg == "time" && name == "Sleep":
		return "calling time.Sleep"
	case pkg == "sync" && name == "Wait" && recvNamed() == "WaitGroup":
		return "calling sync.WaitGroup.Wait"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "os/exec":
		return fmt.Sprintf("calling %s.%s (network/process I/O)", pkg, name)
	case pkg == "encoding/json" && (name == "Encode" || name == "Decode"):
		return fmt.Sprintf("calling (*json.%s).%s (reads/writes an io stream)", recvNamed(), name)
	case pkg == "io" && (name == "Copy" || name == "CopyN" || name == "ReadAll" || name == "ReadFull"):
		return "calling io." + name
	case pkg == "io" && name == "WriteString":
		if len(call.Args) > 0 && neverFailsWriter(info, call.Args[0]) {
			return ""
		}
		return "calling io.WriteString to an unknown writer"
	case pkg == "fmt" && strings.HasPrefix(name, "Fprint"):
		if len(call.Args) > 0 && neverFailsWriter(info, call.Args[0]) {
			return ""
		}
		return "calling fmt." + name + " to an unknown writer"
	case pkg == "bufio" && name == "Flush":
		return "calling (*bufio.Writer).Flush"
	case pkg == "os" && recvNamed() == "File" &&
		(name == "Read" || name == "Write" || name == "WriteString" || name == "Sync" || name == "ReadFrom"):
		return "calling (*os.File)." + name + " (file I/O)"
	}
	return ""
}

// condWaitCall reports a sync.Cond.Wait call — it blocks, but it also
// releases the lock it was built with, so the intraprocedural walk must
// not flag it; it only feeds the transitive blocking fact.
func condWaitCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Cond"
}

// lockChecker carries the module-wide state of one lockcheck run.
type lockChecker struct {
	p *ModulePass
	// blocks memoizes the transitive does-this-function-block fact.
	blocks map[*FuncNode]string
	inProg map[*FuncNode]bool
	// order records lock-acquisition pairs: order[a][b] = first site
	// where b was acquired while a was held.
	order map[types.Object]map[types.Object]orderSite
	// edgesAt indexes call-graph edges by call-site position, per node.
	edgesAt map[*FuncNode]map[token.Pos][]*Edge
}

type orderSite struct {
	pos          token.Pos
	first, later string
}

// selectBlocking reports whether a select statement can block (no
// default clause).
func selectBlocking(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return false
		}
	}
	return true
}

// directBlockDesc describes the first directly-blocking operation in
// the body of n ("" when none): channel ops, blocking selects, known
// stdlib blockers, Cond.Wait. Used for the transitive fact, so
// Cond.Wait counts here even though the walk never reports it
// directly.
func (lc *lockChecker) directBlockDesc(n *FuncNode) string {
	if !n.InModule() {
		return ""
	}
	info := n.Pkg.Info
	nonBlockingComm := lc.nonBlockingCommSpans(n)
	desc := ""
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil || desc != "" {
			return desc == ""
		}
		switch node := node.(type) {
		case *ast.SendStmt:
			if !nonBlockingComm.covers(node.Pos()) {
				desc = "sending on a channel"
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !nonBlockingComm.covers(node.Pos()) {
				desc = "receiving from a channel"
			}
		case *ast.SelectStmt:
			if selectBlocking(node) {
				desc = "blocking in a select"
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					desc = "ranging over a channel"
				}
			}
		case *ast.CallExpr:
			if condWaitCall(info, node) {
				desc = "calling sync.Cond.Wait"
			} else if d := stdlibBlockingCall(info, node); d != "" {
				desc = d
			}
		}
		return desc == ""
	})
	return desc
}

// spanSet is a small position-interval set.
type spanSet []span

func (s spanSet) covers(pos token.Pos) bool {
	for _, sp := range s {
		if sp.contains(pos) {
			return true
		}
	}
	return false
}

// nonBlockingCommSpans collects the comm-clause headers of selects WITH
// a default clause — channel ops there never block.
func (lc *lockChecker) nonBlockingCommSpans(n *FuncNode) spanSet {
	var out spanSet
	if !n.InModule() {
		return out // no body: an assembly stub or an external function
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectStmt)
		if !ok || selectBlocking(sel) {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				out = append(out, span{cc.Comm.Pos(), cc.Comm.End()})
			}
		}
		return true
	})
	return out
}

// transitiveBlocks reports whether calling n can block, following
// non-goroutine call edges through module bodies.
func (lc *lockChecker) transitiveBlocks(n *FuncNode) string {
	if d, ok := lc.blocks[n]; ok {
		return d
	}
	if lc.inProg[n] {
		return "" // cycle: assume non-blocking unless proven elsewhere
	}
	lc.inProg[n] = true
	defer delete(lc.inProg, n)
	d := lc.directBlockDesc(n)
	if d == "" && n.InModule() {
		for _, e := range n.Out {
			if e.Go {
				continue
			}
			if sub := lc.transitiveBlocks(e.Callee); sub != "" {
				d = fmt.Sprintf("%s, which blocks: %s", FormatChain(n, []*Edge{e}), sub)
				break
			}
		}
	}
	lc.blocks[n] = d
	return d
}

func runLockCheck(p *ModulePass) {
	lc := &lockChecker{
		p:       p,
		blocks:  map[*FuncNode]string{},
		inProg:  map[*FuncNode]bool{},
		order:   map[types.Object]map[types.Object]orderSite{},
		edgesAt: map[*FuncNode]map[token.Pos][]*Edge{},
	}
	for _, n := range p.Graph.Nodes() {
		if !n.InModule() {
			continue
		}
		idx := map[token.Pos][]*Edge{}
		for _, e := range n.Out {
			idx[e.Pos] = append(idx[e.Pos], e)
		}
		lc.edgesAt[n] = idx
		lc.walkFunction(n)
	}
	lc.reportOrdering()
}

// walkFunction tracks the held-lock set through one body in source
// order and reports blocking operations inside critical sections.
func (lc *lockChecker) walkFunction(n *FuncNode) {
	if !n.InModule() {
		return // no body: an assembly stub or an external function
	}
	info := n.Pkg.Info
	dirs := lc.p.Dirs(n.Pkg)
	nonBlockingComm := lc.nonBlockingCommSpans(n)
	held := map[types.Object]string{} // identity → display name
	heldOrder := []types.Object{}     // acquisition order for messages

	report := func(pos token.Pos, desc string) {
		if len(held) == 0 || dirs.covered("lockok", pos) {
			return
		}
		names := make([]string, 0, len(held))
		for _, o := range heldOrder {
			if name, ok := held[o]; ok {
				names = append(names, name)
			}
		}
		lc.p.Report(pos, fmt.Sprintf("%s held while %s in %s", strings.Join(names, ", "), desc, n.ShortName()), lockSuggestion)
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil {
			return true
		}
		switch node := node.(type) {
		case *ast.FuncLit:
			// A closure body runs later, not inside this critical
			// section; its own locks are walked via the enclosing
			// declaration's graph attribution only for edges, which is
			// a documented approximation.
			return false
		case *ast.DeferStmt:
			if m, obj, _ := classifyLockCall(info, node.Call); m == lockRelease && obj != nil {
				// defer Unlock: the lock stays held until return — keep
				// it in the held set for the rest of the walk.
				return false
			}
			return true
		case *ast.SendStmt:
			if !nonBlockingComm.covers(node.Pos()) {
				report(node.Pos(), "sending on a channel")
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !nonBlockingComm.covers(node.Pos()) {
				report(node.Pos(), "receiving from a channel")
			}
		case *ast.SelectStmt:
			if selectBlocking(node) {
				report(node.Pos(), "blocking in a select")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(node.Pos(), "ranging over a channel")
				}
			}
		case *ast.CallExpr:
			m, obj, name := classifyLockCall(info, node)
			switch m {
			case lockAcquire:
				if obj != nil {
					if _, already := held[obj]; already {
						if !dirs.covered("lockok", node.Pos()) {
							lc.p.Report(node.Pos(), fmt.Sprintf("%s acquired while already held in %s (Go mutexes are not reentrant)", name, n.ShortName()), lockSuggestion)
						}
					} else {
						for _, h := range heldOrder {
							if _, ok := held[h]; ok && h != obj {
								lc.recordOrder(h, obj, held[h], name, node.Pos())
							}
						}
						held[obj] = name
						heldOrder = append(heldOrder, obj)
					}
				}
				return false
			case lockRelease:
				if obj != nil {
					delete(held, obj)
				}
				return false
			}
			if condWaitCall(info, node) {
				return true // releases its lock; not a critical-section stall
			}
			if d := stdlibBlockingCall(info, node); d != "" {
				report(node.Pos(), d)
				return true
			}
			if len(held) > 0 {
				for _, e := range lc.edgesAt[n][node.Pos()] {
					if e.Go || !e.Callee.InModule() {
						continue
					}
					if sub := lc.transitiveBlocks(e.Callee); sub != "" {
						report(node.Pos(), fmt.Sprintf("calling %s, which blocks: %s", e.Callee.ShortName(), sub))
						break
					}
				}
			}
		}
		return true
	})
}

// recordOrder notes "later acquired while first held" at pos.
func (lc *lockChecker) recordOrder(first, later types.Object, firstName, laterName string, pos token.Pos) {
	m, ok := lc.order[first]
	if !ok {
		m = map[types.Object]orderSite{}
		lc.order[first] = m
	}
	if _, ok := m[later]; !ok {
		m[later] = orderSite{pos: pos, first: firstName, later: laterName}
	}
}

// reportOrdering flags AB/BA cycles across the whole module.
func (lc *lockChecker) reportOrdering() {
	type finding struct {
		a, b orderSite
	}
	var findings []finding
	//csecg:orderok findings are sorted by position before reporting
	for a, m := range lc.order {
		//csecg:orderok findings are sorted by position before reporting
		for b, site := range m {
			rev, ok := lc.order[b][a]
			if !ok {
				continue
			}
			// Emit each unordered pair once, from its lower position.
			if site.pos < rev.pos {
				findings = append(findings, finding{a: site, b: rev})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].a.pos < findings[j].a.pos })
	for _, f := range findings {
		lc.p.Report(f.a.pos,
			fmt.Sprintf("inconsistent lock ordering: %s acquired while %s held here, but the opposite order occurs at %s",
				f.a.later, f.a.first, lc.p.Fset.Position(f.b.pos)),
			"pick one acquisition order module-wide, or collapse the two critical sections")
	}
}
