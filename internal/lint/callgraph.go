package lint

// Cross-package call graph for the interprocedural analyzers. Every
// function declared in a program package (targets and module-local
// dependencies) gets a funcSummary: its allocation constructs and its
// statically resolvable call edges, each tagged with the cold-path flag
// (inside an if-block that terminates in panic — shape-check guards that
// never run at steady state). Functions are keyed by types.Func.FullName,
// which is stable across the two type universes the loader creates
// (source-checked packages vs. their export-data twins seen by importers).
//
// Closures are inlined into their enclosing function's summary: a func
// literal's allocations and calls happen on the caller's dynamic path, so
// they are the caller's problem. The literal's own closure allocation is
// recorded as an alloc site unless it is the sanctioned direct argument
// to an internal/parallel fan-out primitive (one amortized allocation per
// kernel call; the single-worker branch the 0-allocs benchmarks pin is
// closure-free).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An allocSite is one allocation construct inside a function body.
type allocSite struct {
	pos  token.Pos
	what string // human description: "make", "append", "slice literal", ...
}

// A callSite is one outgoing call edge.
type callSite struct {
	pos     token.Pos
	callee  string // FullName key; for function-typed fields, "(*pkg.Type).field"; "" when underivable
	dynamic string // non-empty description when the callee's body is not statically resolvable
}

// A funcSummary is the per-function fact bundle the interprocedural
// passes traverse.
type funcSummary struct {
	key    string
	name   string // short name for messages
	pkg    *Package
	pos    token.Pos
	allocs []allocSite
	calls  []callSite
	root   bool // *Into-named or //mptlint:noalloc-annotated
}

// funcKey returns the call-graph key of fn.
func funcKey(fn *types.Func) string { return fn.FullName() }

// fieldKey derives the sanction key of a function-typed struct field:
// "(*pkg.Type).field". Empty when the owning type is not a named struct.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return "(*" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + sel.Sel.Name
}

// callgraph builds (once) and returns the program's function summaries.
func (p *Program) callgraph() map[string]*funcSummary {
	if p.summaries != nil {
		return p.summaries
	}
	p.summaries = map[string]*funcSummary{}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &funcSummary{
					key:  funcKey(obj),
					name: fn.Name.Name,
					pkg:  pkg,
					pos:  fn.Pos(),
					root: strings.HasSuffix(fn.Name.Name, "Into") || funcDirectives(fn)["noalloc"],
				}
				summarizeBody(pkg, fn.Body, s)
				p.summaries[s.key] = s
			}
		}
	}
	return p.summaries
}

// summarizeBody walks one function body recording allocation constructs
// and call edges on the non-cold paths. Cold paths (if-blocks terminating
// in panic) contribute nothing: they are shape-check error paths.
func summarizeBody(pkg *Package, body *ast.BlockStmt, s *funcSummary) {
	info := pkg.Info
	sanctionedLits := map[*ast.FuncLit]bool{}
	var walk func(n ast.Node, cold bool)
	walk = func(n ast.Node, cold bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return true
			}
			switch m := m.(type) {
			case *ast.IfStmt:
				walk(m.Cond, cold)
				if m.Init != nil {
					walk(m.Init, cold)
				}
				walk(m.Body, cold || terminatesInPanic(m.Body))
				if m.Else != nil {
					walk(m.Else, cold)
				}
				return false
			case *ast.FuncLit:
				if !cold && !sanctionedLits[m] {
					s.allocs = append(s.allocs, allocSite{m.Pos(), "func literal (closure)"})
				}
				walk(m.Body, cold)
				return false
			case *ast.CallExpr:
				if !cold {
					summarizeCall(info, m, s, sanctionedLits)
				}
			case *ast.UnaryExpr:
				if !cold && m.Op == token.AND {
					if _, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok {
						s.allocs = append(s.allocs, allocSite{m.Pos(), "&composite literal"})
					}
				}
			case *ast.CompositeLit:
				if cold {
					return true
				}
				if t := info.TypeOf(m); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice:
						s.allocs = append(s.allocs, allocSite{m.Pos(), "slice literal"})
					case *types.Map:
						s.allocs = append(s.allocs, allocSite{m.Pos(), "map literal"})
					}
				}
			case *ast.GoStmt:
				if !cold {
					s.allocs = append(s.allocs, allocSite{m.Pos(), "goroutine spawn"})
				}
			}
			return true
		})
	}
	walk(body, false)
}

// summarizeCall records one call expression: a builtin allocation, a
// static edge, or a dynamic (unresolvable) call. Func-literal arguments
// to internal/parallel primitives are marked sanctioned before the walk
// descends into them.
func summarizeCall(info *types.Info, call *ast.CallExpr, s *funcSummary, sanctionedLits map[*ast.FuncLit]bool) {
	if isPkgFunc(info, call, "mptwino/internal/parallel") {
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				sanctionedLits[lit] = true
			}
		}
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			switch fun.Name {
			case "make":
				s.allocs = append(s.allocs, allocSite{call.Pos(), "make"})
			case "new":
				s.allocs = append(s.allocs, allocSite{call.Pos(), "new"})
			case "append":
				s.allocs = append(s.allocs, allocSite{call.Pos(), "append"})
			}
		case *types.Func:
			s.calls = append(s.calls, callSite{call.Pos(), funcKey(obj), ""})
		case *types.TypeName:
			// Conversion, not a call.
		case *types.Var:
			// Call through a function value. Locally created closures are
			// already inlined at their literal site; a function-typed
			// parameter or captured variable is genuinely opaque.
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				s.calls = append(s.calls, callSite{call.Pos(), "", fmt.Sprintf("call through function value %q", fun.Name)})
			}
		}
	case *ast.SelectorExpr:
		obj := selectionObj(info, fun)
		fn, ok := obj.(*types.Func)
		if !ok {
			// Field of function type, or conversion through a qualified
			// type: function-typed fields are dynamic (no body to walk),
			// but when the owning struct is resolvable they get a
			// "(*pkg.Type).field" key so a vetted dispatch slot (the
			// runtime-selected GEMM micro-kernel) can be sanctioned.
			if v, ok := obj.(*types.Var); ok {
				if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
					s.calls = append(s.calls, callSite{call.Pos(), fieldKey(info, fun), fmt.Sprintf("call through function-typed field %q", fun.Sel.Name)})
				}
			}
			return
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			s.calls = append(s.calls, callSite{call.Pos(), "", fmt.Sprintf("dynamic interface call %s", fn.FullName())})
			return
		}
		s.calls = append(s.calls, callSite{call.Pos(), funcKey(fn), ""})
	case *ast.FuncLit:
		// Immediately-invoked literal: body already inlined by the walk;
		// the literal itself was recorded (or sanctioned) at its site.
	}
}

// terminatesInPanic reports whether block's last statement is a panic call
// — the shape of a cold shape-check guard.
func terminatesInPanic(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	es, ok := block.List[len(block.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
