// Package hotalloc forbids per-event allocation sources in hot-path code.
//
// The FinePack DES core spends its inner loop firing millions of events
// (scheduler run loop, calendar-queue push/fire, the interconnect transfer
// pipeline, egress/ingress per-store ops). PR 7 made those paths
// allocation-lean — freelists for per-op state, pre-bound method values
// instead of per-event closures, head-compacted queues — and the end-to-end
// benchmarks gate allocs/op. This analyzer turns that discipline into a
// compile-time-checkable contract: functions reachable from a
// //finepack:hotpath-annotated root must not introduce new allocation
// sources.
//
// Reachability comes from the whole-program call graph (analysis.CallGraph):
// static calls, method-value references, and interface calls resolved
// conservatively. The scheduler fires every event through des.Handler's
// Fire, an interface call, so every Fire method in the program is hot.
// Calls through plain func values (a des.Func's function) resolve to
// nothing, so each layer annotates its own entry points.
//
// Flagged in hot functions:
//
//   - func literals that capture variables — each evaluation allocates the
//     closure (hoist state to a struct field, or pre-bind once at setup);
//   - method values (x.M used as a value, not called) — each evaluation
//     allocates a bound closure (make the object its own handler, as
//     interconnect's pooled xfer is a des.Handler, or pre-bind once at
//     setup);
//   - fmt.* calls — formatting boxes every operand (panic(fmt.Sprintf(...))
//     is exempt: a crash path's allocation is irrelevant);
//   - interface boxing: passing a concrete value that is not pointer
//     shaped (a pointer, func, map, chan or unsafe.Pointer, which the
//     interface stores directly) where an interface parameter is
//     declared;
//   - append in a loop to a slice that was never presized — growth
//     reallocates across iterations (size with make(len/cap) up front);
//   - map or channel creation (make, map literals) — per-event map churn is
//     exactly the closure-churn class PR 7 purged.
//
// Legitimate exceptions carry //finepack:allow hotalloc -- <why>; a
// directive in a function's doc comment exempts the whole body (the shape
// a miss path wants when it builds state once per pooled object,
// amortized to zero per event).
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"finepack/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:    "hotalloc",
	Doc:     "forbid allocation sources (capturing closures, method values, fmt, interface boxing, unsized append growth, map/chan creation) in functions reachable from //finepack:hotpath roots",
	Applies: analysis.SimulatorInternal(),
	Run:     run,
}

func run(pass *analysis.Pass) error {
	if pass.Graph == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !pass.Graph.Hot(analysis.FuncID(fn)) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc scans one hot function declaration, func literals included
// (closure bodies are hot iff their enclosing declaration is).
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Pre-pass: call positions (to tell method values from method calls),
	// panic argument ranges (crash paths are exempt from the fmt and boxing
	// rules), and the presized-ness of every locally declared slice.
	calledFuns := make(map[ast.Expr]bool)
	var panicRanges [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		calledFuns[ast.Unparen(call.Fun)] = true
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltin(info, id) {
			panicRanges = append(panicRanges, [2]token.Pos{call.Lparen, call.Rparen})
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if pos > r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	unsized := collectUnsizedSlices(info, fd.Body)

	var loopDepth int
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			if f, ok := n.(*ast.ForStmt); ok {
				walkLoop(visit, f.Init, f.Cond, f.Post, f.Body)
			} else {
				r := n.(*ast.RangeStmt)
				walkLoop(visit, r.Key, r.Value, r.X, r.Body)
			}
			loopDepth--
			return false

		case *ast.FuncLit:
			if v := captured(info, fd, n); v != "" {
				pass.Reportf(n.Pos(), "closure captures %s and allocates per evaluation in a hot path; hoist the state or pre-bind at setup", v)
			}
			return true

		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel != nil && sel.Kind() == types.MethodVal && !calledFuns[ast.Expr(n)] {
				pass.Reportf(n.Pos(), "method value %s allocates a bound closure per evaluation in a hot path; pre-bind it once at setup", types.ExprString(n))
			}
			return true

		case *ast.CallExpr:
			checkCall(pass, info, n, inPanic)
			if loopDepth > 0 {
				checkLoopAppend(pass, info, n, unsized)
			}
			return true

		case *ast.CompositeLit:
			if t, ok := info.Types[ast.Expr(n)]; ok {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocates in a hot path; hoist the map to setup or a pooled struct")
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// walkLoop re-dispatches a loop's children through visit so loopDepth stays
// accurate (ast.Inspect offers no post-visit hook).
func walkLoop(visit func(ast.Node) bool, nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil {
			ast.Inspect(n, visit)
		}
	}
}

// checkCall applies the per-call rules: fmt in hot scope, make(map/chan),
// and interface boxing of concrete non-pointer arguments.
func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, inPanic func(token.Pos) bool) {
	fun := ast.Unparen(call.Fun)

	// make(map[...]...) / make(chan ...).
	if id, ok := fun.(*ast.Ident); ok && id.Name == "make" && isBuiltin(info, id) && len(call.Args) > 0 {
		if t, ok := info.Types[call.Args[0]]; ok {
			switch t.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(call.Pos(), "make(map) allocates in a hot path; hoist the map to setup or a pooled struct")
			case *types.Chan:
				pass.Reportf(call.Pos(), "make(chan) allocates in a hot path; channels do not belong in the event loop")
			}
		}
		return
	}

	// Type conversions are not calls; remaining builtins (panic, append,
	// copy, ...) don't box — their "parameters" are compiler intrinsics.
	if t, ok := info.Types[fun]; ok && t.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok && isBuiltin(info, id) {
		return
	}

	callee := calleeFunc(info, fun)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		if !inPanic(call.Pos()) {
			pass.Reportf(call.Pos(), "fmt.%s formats (and boxes every operand) in a hot path; precompute or move off the event loop", callee.Name())
		}
		return // don't double-report its operands as boxing
	}

	sig := calleeSignature(info, fun)
	if sig == nil || inPanic(call.Pos()) {
		return
	}
	for i, arg := range call.Args {
		param := paramType(sig, i, call)
		if param == nil || !types.IsInterface(param) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		if pointerShaped(at.Type) {
			continue // fits in the interface word; no boxing
		}
		qual := types.RelativeTo(pass.Pkg)
		pass.Reportf(arg.Pos(), "passing %s by value into %s boxes it (allocates) in a hot path; pass a pointer or restructure", types.TypeString(at.Type, qual), types.TypeString(param, qual))
	}
}

// pointerShaped reports whether values of t are a single pointer word —
// pointers, funcs, maps, chans and unsafe.Pointer — which an interface
// stores directly, so converting one allocates nothing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkLoopAppend flags append growth inside a loop when the destination
// slice was declared without a capacity.
func checkLoopAppend(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, unsized map[*types.Var]bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || !isBuiltin(info, id) || len(call.Args) == 0 {
		return
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := info.Uses[dst].(*types.Var); ok && unsized[v] {
		pass.Reportf(call.Pos(), "append to un-presized slice %s inside a loop reallocates as it grows in a hot path; size it with make(len/cap) up front", dst.Name)
	}
}

// collectUnsizedSlices classifies every slice variable declared in body:
// true means it started with no capacity (nil, empty literal, or
// make(..., 0)), so loop appends against it grow geometrically.
func collectUnsizedSlices(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	record := func(name *ast.Ident, init ast.Expr) {
		v, ok := info.Defs[name].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		out[v] = sliceInitUnsized(info, init)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec: // var s []T  /  var s = <init>
			for i, name := range n.Names {
				var init ast.Expr
				if i < len(n.Values) {
					init = n.Values[i]
				}
				record(name, init)
			}
		case *ast.AssignStmt: // s := <init>
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if name, ok := lhs.(*ast.Ident); ok {
					record(name, n.Rhs[i])
				}
			}
		}
		return true
	})
	return out
}

// sliceInitUnsized reports whether a slice initializer leaves zero capacity.
func sliceInitUnsized(info *types.Info, init ast.Expr) bool {
	switch init := ast.Unparen(init).(type) {
	case nil:
		return true // var s []T
	case *ast.CompositeLit:
		return len(init.Elts) == 0 // []T{}
	case *ast.CallExpr:
		id, ok := ast.Unparen(init.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || !isBuiltin(info, id) {
			return false
		}
		// make([]T, n) or make([]T, n, c): unsized only when every size
		// argument is the literal 0.
		for _, a := range init.Args[1:] {
			tv, ok := info.Types[a]
			if !ok || tv.Value == nil || tv.Value.String() != "0" {
				return false
			}
		}
		return true
	}
	return false
}

// captured returns the name of a variable the func literal captures from
// its enclosing declaration ("" when the literal is capture-free, which
// compiles to a static func and does not allocate).
func captured(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing declaration (receiver, parameter, or
		// local) but outside the literal itself → captured.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

// calleeFunc resolves a call's function expression to its *types.Func, when
// it is a static function or method reference.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeSignature returns the signature of whatever fun evaluates to, nil
// for builtins and type expressions.
func calleeSignature(info *types.Info, fun ast.Expr) *types.Signature {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramType returns the declared type of parameter i, expanding variadics
// (…T sites see T) and returning nil past a non-variadic parameter list.
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() {
		if call.Ellipsis != token.NoPos {
			return nil // spread call: no boxing introduced here
		}
		if i >= n-1 {
			s, ok := sig.Params().At(n - 1).Type().(*types.Slice)
			if !ok {
				return nil
			}
			return s.Elem()
		}
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// isBuiltin reports whether id resolves to a language builtin (or nothing —
// the pre-typecheck fallback analysistest never hits).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
