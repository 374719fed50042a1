package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// ErrClass enforces the error-taxonomy invariants added in the fault
// containment and network PRs:
//
//  1. Classification: every exported sentinel error ("var ErrX = ...") in
//     internal/engine, internal/core, and internal/wal must be classified
//     on purpose — referenced from the body of engine.IsRetryable or
//     engine.Classify, or annotated "//ermia:classify fatal" to document
//     that falling through to Classify's OutcomeFatal default arm is
//     intentional, not an omission.
//  2. Exhaustiveness: a switch whose tag has a type annotated
//     "//ermia:exhaustive" and no default clause must list every declared
//     constant of that type.
//
// The wire side of the taxonomy (each engine and proto sentinel has its own
// status or is annotated "//ermia:classify local", the status table is a
// bijection, every status is mapped) is checked by internal/proto's tests.
var ErrClass = &Analyzer{
	Name: "errclass",
	Doc:  "sentinel errors must be classified and switched exhaustively",
	Run:  runErrClass,
}

// sentinel is one exported Err* package-level variable.
type sentinel struct {
	obj *types.Var
	doc *ast.CommentGroup
}

func runErrClass(m *Module) []Finding {
	var out []Finding
	if engPkg := m.LookupSuffix("internal/engine"); engPkg != nil {
		// References inside the classifier functions.
		classified := make(map[types.Object]bool)
		for _, name := range []string{"IsRetryable", "Classify"} {
			markUses(engPkg, name, classified)
		}
		for _, s := range collectSentinels(m, []string{"internal/engine", "internal/core", "internal/wal"}) {
			d, _ := hasDirective(s.doc, "classify")
			if !classified[s.obj] && !slices.Contains(d.args, "fatal") {
				out = append(out, Finding{
					Analyzer: "errclass",
					Pos:      m.Fset.Position(s.obj.Pos()),
					Message: fmt.Sprintf("sentinel %s is not referenced by engine.IsRetryable or engine.Classify; classify it there or annotate the declaration //ermia:classify fatal <reason>",
						s.obj.Name()),
				})
			}
		}
	}
	out = append(out, checkExhaustiveSwitches(m)...)
	return out
}

func collectSentinels(m *Module, suffixes []string) []sentinel {
	var out []sentinel
	for _, suffix := range suffixes {
		p := m.LookupSuffix(suffix)
		if p == nil {
			continue
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					doc := vs.Doc
					if doc == nil {
						doc = gd.Doc
					}
					for _, name := range vs.Names {
						obj, _ := p.Info.Defs[name].(*types.Var)
						if obj == nil || !obj.Exported() || !strings.HasPrefix(obj.Name(), "Err") {
							continue
						}
						if !types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
							continue
						}
						out = append(out, sentinel{obj: obj, doc: doc})
					}
				}
			}
		}
	}
	return out
}

// markUses records every object referenced inside the body of the named
// top-level function.
func markUses(p *Package, fname string, into map[types.Object]bool) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fname || fd.Recv != nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						into[obj] = true
					}
				}
				return true
			})
		}
	}
}

// exprObject resolves an identifier or package-qualified selector to its
// object.
func exprObject(p *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// constantsOf returns the package-level constants of exactly type t. Blank
// placeholders (a retired iota value kept reserved) name nothing and are
// skipped.
func constantsOf(p *Package, t types.Type) []*types.Const {
	var out []*types.Const
	for _, file := range p.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, _ := p.Info.Defs[name].(*types.Const)
					if c != nil && c.Name() != "_" && types.Identical(c.Type(), t) {
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// checkExhaustiveSwitches enforces rule 2 module-wide.
func checkExhaustiveSwitches(m *Module) []Finding {
	// Exhaustive-marked named types, resolved to their declaring package.
	exhaustive := make(map[*types.TypeName]*Package)
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if _, ok := hasDirective(doc, "exhaustive"); !ok {
						continue
					}
					if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
						exhaustive[tn] = p
					}
				}
			}
		}
	}
	if len(exhaustive) == 0 {
		return nil
	}

	var out []Finding
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tv, ok := p.Info.Types[sw.Tag]
				if !ok {
					return true
				}
				named, ok := tv.Type.(*types.Named)
				if !ok {
					return true
				}
				declPkg, marked := exhaustive[named.Obj()]
				if !marked {
					return true
				}
				covered := make(map[types.Object]bool)
				hasDefault := false
				for _, stmt := range sw.Body.List {
					cc := stmt.(*ast.CaseClause)
					if cc.List == nil {
						hasDefault = true
						continue
					}
					for _, e := range cc.List {
						if obj := exprObject(p, e); obj != nil {
							covered[obj] = true
						}
					}
				}
				if hasDefault {
					return true
				}
				var missing []string
				for _, c := range constantsOf(declPkg, named) {
					if !covered[c] {
						missing = append(missing, c.Name())
					}
				}
				if len(missing) > 0 {
					out = append(out, Finding{
						Analyzer: "errclass",
						Pos:      m.Fset.Position(sw.Pos()),
						Message: fmt.Sprintf("switch over exhaustive type %s misses %s and has no default",
							named.Obj().Name(), strings.Join(missing, ", ")),
					})
				}
				return true
			})
		}
	}
	return out
}
