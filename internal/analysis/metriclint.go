package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// MetricLint enforces the telemetry naming contract module-wide. The
// registry hands out series on first use, so a typo'd or unit-less
// metric name silently becomes a new series — the dashboards never
// notice until the real one flatlines. Three rules:
//
//  1. Metric names are compile-time constant (a literal, const, or a
//     concatenation whose last operand is constant), snake_case, and
//     unit-suffixed: counters end in _total; gauges and histograms end
//     in a recognized unit (_ns, _bytes, _cycles, …), optionally
//     followed by a _per_<word> denominator.
//  2. Prometheus label keys are compile-time-constant snake_case,
//     checked on every Label literal — at the exporter call or wherever
//     a label set is built ahead of the scrape.
//  3. A registry constructed locally whose metrics are registered but
//     never handed to an exporter (WritePrometheus* or
//     AppendPrometheus*, or a function that reaches one through the
//     call graph) records into the void.
//
// Registry detection is structural — any named type with Counter,
// Gauge and Histogram methods taking a name string — so the contract
// follows the type, not the import path. Waive a deliberate exception
// (an export loop re-reading existing series, a measurement-only
// registry in a benchmark) with //csecg:metricok.
var MetricLint = &Analyzer{
	Name:      "metriclint",
	Doc:       "enforce metric naming, constant label sets, and registry export",
	RunModule: runMetricLint,
}

// metricUnits are the recognized unit suffixes for gauges and
// histograms (counters take _total). The vocabulary is the project's
// own: cycle and iteration counts are first-class units here because
// the paper's budget is measured in MSP430 cycles and FISTA
// iterations, not seconds.
var metricUnits = []string{
	"_ns", "_seconds", "_bytes", "_bits", "_ratio", "_permille",
	"_milli", "_centi", "_state", "_rung", "_depth", "_slots",
	"_cycles", "_iterations",
}

// registryMethods are the methods of a registry-like type whose use
// does not leak the registry anywhere.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"SetHelp": true, "Help": true,
	"CounterNames": true, "GaugeNames": true, "HistogramNames": true,
}

// registryLike reports whether t (or *t) is a metrics registry:
// a named type with Counter, Gauge and Histogram methods, each taking
// exactly one string parameter and returning a pointer.
func registryLike(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, want := range []string{"Counter", "Gauge", "Histogram"} {
		found := false
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			if m.Name() != want {
				continue
			}
			sig := m.Type().(*types.Signature)
			if sig.Params().Len() == 1 && isString(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 1 {
				if _, isPtr := sig.Results().At(0).Type().(*types.Pointer); isPtr {
					found = true
				}
			}
			break
		}
		if !found {
			return false
		}
	}
	return true
}

// registrationCall reports whether call is reg.Counter/Gauge/Histogram
// on a registry-like receiver, returning the metric kind and name
// argument.
func registrationCall(info *types.Info, call *ast.CallExpr) (kind string, nameArg ast.Expr, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 1 {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return "", nil, false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal || !registryLike(s.Recv()) {
		return "", nil, false
	}
	return sel.Sel.Name, call.Args[0], true
}

// nameFragments flattens a metric-name expression into its constant
// string fragments, in order; a non-constant operand yields "". A
// single fully-constant expression comes back as one fragment.
func nameFragments(info *types.Info, e ast.Expr) []string {
	e = unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return []string{constant.StringVal(tv.Value)}
	}
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ADD {
		return append(nameFragments(info, b.X), nameFragments(info, b.Y)...)
	}
	return []string{""}
}

// validNameChars reports whether s is snake_case: [a-z0-9_] only, no
// run of consecutive underscores.
func validNameChars(s string) bool {
	if strings.Contains(s, "__") {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return false
		}
	}
	return true
}

// stripPerDenominator removes one trailing _per_<word> denominator
// ("mote_wire_bytes_per_window" → "mote_wire_bytes").
func stripPerDenominator(name string) string {
	i := strings.LastIndex(name, "_per_")
	if i > 0 && validNameChars(name[i+len("_per_"):]) && name[i+len("_per_"):] != "" {
		return name[:i]
	}
	return name
}

// checkMetricName validates one registration's name expression and
// returns a finding message, or "".
func checkMetricName(info *types.Info, kind string, nameArg ast.Expr) string {
	frags := nameFragments(info, nameArg)
	full := true
	anyConst := false
	for _, f := range frags {
		if f == "" {
			full = false
		} else {
			anyConst = true
			if !validNameChars(f) {
				return fmt.Sprintf("metric name fragment %q is not snake_case [a-z0-9_]", f)
			}
		}
	}
	if !anyConst {
		return "metric name is not compile-time constant"
	}
	last := frags[len(frags)-1]
	if last == "" {
		return "metric name's unit suffix is not compile-time constant"
	}
	if full {
		name := strings.Join(frags, "")
		if name == "" || name[0] < 'a' || name[0] > 'z' {
			return fmt.Sprintf("metric name %q must start with a lowercase letter", name)
		}
		last = name
	}
	if kind == "Counter" {
		if !strings.HasSuffix(last, "_total") {
			return fmt.Sprintf("counter %q must end in _total", strings.Join(frags, "…"))
		}
		return ""
	}
	base := stripPerDenominator(last)
	for _, u := range metricUnits {
		if strings.HasSuffix(base, u) {
			return ""
		}
	}
	return fmt.Sprintf("%s %q has no unit suffix (want one of %s, optionally _per_<word>)",
		strings.ToLower(kind), strings.Join(frags, "…"), strings.Join(metricUnits, " "))
}

// exporterName reports whether a function of this name puts a registry
// on the wire.
func exporterName(name string) bool {
	return strings.HasPrefix(name, "WritePrometheus") || strings.HasPrefix(name, "AppendPrometheus")
}

// exportsRegistry reports (memoized) whether calling n can put a
// registry on the wire: the function has an exporter name, or a
// callee's transitively does.
func exportsRegistry(n *FuncNode, memo map[*FuncNode]bool) bool {
	if v, ok := memo[n]; ok {
		return v
	}
	memo[n] = false // cycle guard
	v := exporterName(n.Fn.Name())
	if !v {
		for _, e := range n.Out {
			if exportsRegistry(e.Callee, memo) {
				v = true
				break
			}
		}
	}
	memo[n] = v
	return v
}

func runMetricLint(p *ModulePass) {
	exportMemo := map[*FuncNode]bool{}
	for _, pkg := range p.Module.Pkgs {
		info := pkg.Info
		dirs := p.Dirs(pkg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					checkLabelLit(p, info, dirs, lit)
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if kind, nameArg, ok := registrationCall(info, call); ok {
					if !dirs.covered("metricok", call.Pos()) {
						if msg := checkMetricName(info, kind, nameArg); msg != "" {
							p.Report(call.Pos(), msg,
								"use a constant snake_case name with a unit suffix, or waive with //csecg:metricok")
						}
					}
				}
				return true
			})
			checkLocalRegistries(p, pkg, file, exportMemo)
		}
	}
}

// checkLabelLit validates a Label composite literal: the Key field
// must be a compile-time-constant snake_case string. A Label is any
// named type called Label with string Key and Value fields.
func checkLabelLit(p *ModulePass, info *types.Info, dirs *Directives, lit *ast.CompositeLit) {
	tv, ok := info.Types[ast.Expr(lit)]
	if !ok || !labelLike(tv.Type) {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Key" {
			continue
		}
		if dirs.covered("metricok", kv.Pos()) {
			continue
		}
		vtv, ok := info.Types[kv.Value]
		if !ok || vtv.Value == nil || vtv.Value.Kind() != constant.String {
			p.Report(kv.Pos(), "label key is not compile-time constant",
				"label sets must be fixed at build time; waive with //csecg:metricok")
			continue
		}
		k := constant.StringVal(vtv.Value)
		if k == "" || k[0] == '_' || !validNameChars(k) {
			p.Report(kv.Pos(), fmt.Sprintf("label key %q is not snake_case", k),
				"label sets must be fixed at build time; waive with //csecg:metricok")
		}
	}
}

// checkLocalRegistries flags function-local registries that register
// metrics but never reach an exporter and never escape the function.
func checkLocalRegistries(p *ModulePass, pkg *Package, file *ast.File, exportMemo map[*FuncNode]bool) {
	info := pkg.Info
	dirs := p.Dirs(pkg)
	ast.Inspect(file, func(n ast.Node) bool {
		decl, ok := n.(*ast.FuncDecl)
		if !ok || decl.Body == nil {
			return true
		}
		// Local registry constructions: reg := NewSomething() where the
		// result is registry-like.
		locals := map[types.Object]token.Pos{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(info, call)
			if callee == nil || !strings.HasPrefix(callee.Name(), "New") {
				return true
			}
			if obj := info.Defs[id]; obj != nil && registryLike(obj.Type()) {
				locals[obj] = as.Pos()
			}
			return true
		})
		if len(locals) == 0 {
			return true
		}
		// Classify every use of each local registry.
		type usage struct {
			registers, exported, escapes bool
		}
		use := map[types.Object]*usage{}
		//csecg:orderok populating a map keyed by the one above
		for obj := range locals {
			use[obj] = &usage{}
		}
		localObj := func(e ast.Expr) types.Object {
			id, ok := unparen(e).(*ast.Ident)
			if !ok {
				return nil
			}
			obj := info.Uses[id]
			if _, tracked := use[obj]; !tracked {
				return nil
			}
			return obj
		}
		accounted := map[token.Pos]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if obj := localObj(sel.X); obj != nil && registryMethods[sel.Sel.Name] {
					accounted[unparen(sel.X).Pos()] = true
					if sel.Sel.Name == "Counter" || sel.Sel.Name == "Gauge" || sel.Sel.Name == "Histogram" {
						use[obj].registers = true
					}
					return true
				}
			}
			callee := staticCallee(info, call)
			for _, arg := range call.Args {
				obj := localObj(arg)
				if obj == nil {
					continue
				}
				accounted[unparen(arg).Pos()] = true
				if callee != nil && calleeExports(p, callee, exportMemo) {
					use[obj].exported = true
				} else {
					// Handed to a function we can't prove exports it —
					// assume the callee takes ownership.
					use[obj].escapes = true
				}
			}
			return true
		})
		// Any use outside the accounted contexts (returned, stored in a
		// struct, captured address, …) counts as an escape.
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			u, tracked := use[obj]
			if tracked && !accounted[id.Pos()] {
				u.escapes = true
			}
			return true
		})
		//csecg:orderok diagnostics are position-sorted by RunModule
		for obj, pos := range locals {
			u := use[obj]
			if u.registers && !u.exported && !u.escapes && !dirs.covered("metricok", pos) {
				p.Report(pos,
					fmt.Sprintf("registry %s registers metrics but is never exported", obj.Name()),
					"hand it to WritePrometheus/WritePrometheusLabeled (or a function that does), or waive a measurement-only registry with //csecg:metricok")
			}
		}
		return true
	})
}

// calleeExports reports whether fn (by graph node, or by name for
// out-of-module functions) can export a registry.
func calleeExports(p *ModulePass, fn *types.Func, memo map[*FuncNode]bool) bool {
	if node := p.Graph.Node(fn); node != nil {
		return exportsRegistry(node, memo)
	}
	return exporterName(fn.Name())
}

// labelLike reports whether t is a named type called Label whose struct
// has string Key and Value fields.
func labelLike(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Label" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	key, value := false, false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch {
		case f.Name() == "Key" && isString(f.Type()):
			key = true
		case f.Name() == "Value" && isString(f.Type()):
			value = true
		}
	}
	return key && value
}
