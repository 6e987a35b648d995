package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The transitive halves of nofpu and noalloc. The intraprocedural
// halves check only the body of a device function or //csecg:hotpath
// function; a hotpath that calls an unannotated helper which allocates
// — or a device function that calls into host-side float code through a
// clean integer signature — passes them silently. These module passes
// close that hole: they walk the call graph from every root and flag
// the first reachable offender, printing the full call chain.

// stdlibAllocating names standard-library functions known to allocate
// on every call — the ones that actually appear on embedded paths
// (error construction and string formatting). The list is deliberately
// small: it exists to catch error-path formatting inside hotpaths, not
// to model the whole standard library.
var stdlibAllocating = map[string]string{
	"fmt.Errorf":   "formats and allocates an error",
	"fmt.Sprintf":  "allocates the formatted string",
	"fmt.Sprint":   "allocates the formatted string",
	"fmt.Sprintln": "allocates the formatted string",
	"errors.New":   "allocates the error value",
	"strings.Join": "allocates the joined string",
	"bytes.Join":   "allocates the joined slice",
}

// isHotpath reports whether the node is opted into noalloc directly.
func isHotpath(n *FuncNode) bool {
	return n.Decl != nil && hasVerb(n.Decl.Doc, "hotpath")
}

// runNoAllocTransitive flags hotpath functions that reach an allocation
// through a callee the intraprocedural half never looks at. Callees
// that are themselves //csecg:hotpath are skipped (their bodies are
// checked directly, so the finding sits where the allocation is);
// //csecg:allocok on the call site waives the whole subtree behind it.
// Goroutine launches are not followed: the spawned body does not run on
// the synchronous hotpath (and the launch itself is already flagged).
func runNoAllocTransitive(p *ModulePass) {
	facts := map[*FuncNode]string{}
	allocDesc := func(n *FuncNode) string {
		if d, ok := facts[n]; ok {
			return d
		}
		d := ""
		switch {
		case isHotpath(n):
			// Checked intraprocedurally; a transitive report would
			// duplicate every finding one level up the chain.
		case n.InModule():
			forEachAllocSite(n.Pkg.Info, p.Dirs(n.Pkg), n.Decl.Body, func(pos token.Pos, form string) bool {
				d = fmt.Sprintf("%s (%s)", form, p.Fset.Position(pos))
				return false
			})
		case n.Decl != nil:
			// A bodyless module declaration is an assembly stub: a leaf
			// that allocates nothing itself. Without //go:noescape the
			// compiler must assume its pointer arguments escape, so the
			// caller's stack buffers move to the heap.
			if !hasGoDirective(n.Decl.Doc, "noescape") && hasPointerParam(n.Fn) {
				d = "assembly stub without //go:noescape: its pointer arguments escape to the heap"
			}
		default:
			d = stdlibAllocating[n.Fn.FullName()]
		}
		facts[n] = d
		return d
	}
	through := func(e *Edge) bool {
		if e.Go {
			return false
		}
		if d := p.NodeDirs(e.Caller); d != nil && d.covered("allocok", e.Pos) {
			return false
		}
		return true
	}
	for _, root := range p.Graph.Nodes() {
		if !isHotpath(root) || !root.InModule() {
			continue
		}
		path, desc := p.Graph.PathTo(root, allocDesc, through)
		if path == nil {
			continue
		}
		p.Report(path[0].Pos,
			fmt.Sprintf("hotpath %s reaches an allocation: %s — %s",
				root.ShortName(), FormatChain(root, path), desc),
			"make the callee allocation-free (annotate it //csecg:hotpath to pin that), or waive the call with //csecg:allocok")
	}
}

// hasGoDirective reports whether cg holds the compiler directive
// //go:<name>.
func hasGoDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == "//go:"+name {
			return true
		}
	}
	return false
}

// hasPointerParam reports whether any parameter of fn carries a pointer
// the callee could retain: a pointer, slice, string, map, channel,
// function, interface or unsafe.Pointer.
func hasPointerParam(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		switch t := params.At(i).Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
			return true
		case *types.Basic:
			if t.Kind() == types.String || t.Kind() == types.UnsafePointer {
				return true
			}
		}
	}
	return false
}

// runNoFPUTransitive flags non-host device functions that reach
// floating point through a callee with a clean integer signature — the
// direct float-signature call is already flagged intraprocedurally, so
// those edges are skipped rather than re-reported. A //csecg:host
// directive on the call site waives the subtree (the call is declared
// host-side modeling).
func runNoFPUTransitive(p *ModulePass) {
	isDeviceChecked := func(n *FuncNode) bool {
		// Device-package functions outside //csecg:host spans have their
		// whole bodies checked by the intraprocedural half.
		if !n.InModule() || !p.Config.isDevice(n.Pkg.ImportPath) {
			return false
		}
		return !p.Dirs(n.Pkg).covered("host", n.Decl.Pos())
	}
	facts := map[*FuncNode]string{}
	floatDesc := func(n *FuncNode) string {
		if d, ok := facts[n]; ok {
			return d
		}
		d := ""
		switch {
		case isDeviceChecked(n):
			// Its body is intraprocedurally float-free already.
		case n.InModule():
			if pos, desc, ok := floatUseIn(n.Pkg.Info, n.Decl.Body); ok {
				d = fmt.Sprintf("%s (%s)", desc, p.Fset.Position(pos))
			}
		default:
			if sig, ok := n.Fn.Type().(*types.Signature); ok && signatureHasFloat(sig) {
				d = "signature uses floating point"
			}
		}
		facts[n] = d
		return d
	}
	through := func(e *Edge) bool {
		if d := p.NodeDirs(e.Caller); d != nil && d.covered("host", e.Pos) {
			return false
		}
		// A float-signature callee called from intraprocedurally-checked
		// device code is already reported at this exact call site.
		if isDeviceChecked(e.Caller) {
			if sig, ok := e.Callee.Fn.Type().(*types.Signature); ok && signatureHasFloat(sig) {
				return false
			}
		}
		return true
	}
	for _, root := range p.Graph.Nodes() {
		if !isDeviceChecked(root) || root.Decl.Body == nil {
			continue
		}
		path, desc := p.Graph.PathTo(root, floatDesc, through)
		if path == nil {
			continue
		}
		p.Report(path[0].Pos,
			fmt.Sprintf("device function %s reaches floating point: %s — %s",
				root.ShortName(), FormatChain(root, path), desc),
			fpSuggestion)
	}
}
