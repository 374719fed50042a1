package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
//  2. Wire bijection: every sentinel in internal/engine and internal/proto
//     must appear in proto's statusTable (the single table both directions
//     of the status<->error mapping walk), or be annotated
//     "//ermia:classify local" to document that it never crosses the wire
//     (client-side synthesized errors, retry-loop wrappers).
//  3. Table audit: statusTable must be a bijection — no status code and no
//     sentinel may appear in two rows.
//  4. Status coverage: every constant of proto's Status type must appear in
//     statusTable or be annotated "//ermia:status special" (StatusOK and
//     StatusInternal, which the mapping functions handle out of line).
//  5. Exhaustiveness: a switch whose tag has a type annotated
//     "//ermia:exhaustive" and no default clause must list every declared
//     constant of that type.
var ErrClass = &Analyzer{
	Name: "errclass",
	Doc:  "sentinel errors must be classified, wire-mapped, and switched exhaustively",
	Run:  runErrClass,
}

// sentinel is one exported Err* package-level variable.
type sentinel struct {
	pkg  *Package
	obj  *types.Var
	spec *ast.ValueSpec
	doc  *ast.CommentGroup
}

func runErrClass(m *Module) []Finding {
	var out []Finding

	engPkg := m.LookupSuffix("internal/engine")
	protoPkg := m.LookupSuffix("internal/proto")

	sentinels := collectSentinels(m, []string{"internal/engine", "internal/core", "internal/wal", "internal/proto"})

	// References inside the classifier functions.
	classified := make(map[types.Object]bool)
	if engPkg != nil {
		for _, name := range []string{"IsRetryable", "Classify"} {
			markUses(engPkg, name, classified)
		}
	}

	// References inside proto's statusTable composite literal, plus the
	// statuses used there.
	tableErrs := make(map[types.Object]bool)
	tableStatuses := make(map[types.Object][]token.Position)
	var statusType types.Type
	if protoPkg != nil {
		statusType = namedType(protoPkg, "Status")
		collectStatusTable(m, protoPkg, tableErrs, tableStatuses, &out)
	}

	for _, s := range sentinels {
		suffix := pathSuffix(s.pkg.Path)
		d, _ := hasDirective(s.doc, "classify")
		tokens := make(map[string]bool)
		for _, a := range d.args {
			tokens[a] = true
		}

		// Rule 1: classification (engine, core, wal).
		if suffix != "internal/proto" && engPkg != nil {
			if !classified[s.obj] && !tokens["fatal"] {
				out = append(out, Finding{
					Analyzer: "errclass",
					Pos:      m.Fset.Position(s.obj.Pos()),
					Message: fmt.Sprintf("sentinel %s is not referenced by engine.IsRetryable or engine.Classify; classify it there or annotate the declaration //ermia:classify fatal <reason>",
						s.obj.Name()),
				})
			}
		}

		// Rule 2: wire bijection (engine, proto).
		if (suffix == "internal/engine" || suffix == "internal/proto") && protoPkg != nil {
			if !tableErrs[s.obj] && !tokens["local"] {
				out = append(out, Finding{
					Analyzer: "errclass",
					Pos:      m.Fset.Position(s.obj.Pos()),
					Message: fmt.Sprintf("sentinel %s has no proto status: add a statusTable row or annotate the declaration //ermia:classify local <reason>",
						s.obj.Name()),
				})
			}
		}
	}

	// Rule 4: status constants must be mapped or marked special.
	if protoPkg != nil && statusType != nil {
		for _, c := range constantsOf(protoPkg, statusType) {
			if len(tableStatuses[c.obj]) > 0 {
				continue
			}
			if d, ok := hasDirective(c.doc, "status"); ok && len(d.args) > 0 && d.args[0] == "special" {
				continue
			}
			out = append(out, Finding{
				Analyzer: "errclass",
				Pos:      m.Fset.Position(c.obj.Pos()),
				Message: fmt.Sprintf("status constant %s appears in no statusTable row; map it to a sentinel or annotate it //ermia:status special",
					c.obj.Name()),
			})
		}
	}

	// Rule 5: switch exhaustiveness over //ermia:exhaustive types.
	out = append(out, checkExhaustiveSwitches(m)...)
	return out
}

func pathSuffix(path string) string {
	if i := strings.Index(path, "internal/"); i >= 0 {
		return path[i:]
	}
	return path
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
						out = append(out, sentinel{pkg: p, obj: obj, spec: vs, doc: doc})
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

// collectStatusTable walks the composite literal initializing proto's
// statusTable var, recording which sentinels and which status constants
// appear, and reporting duplicate rows (rule 3).
func collectStatusTable(m *Module, p *Package, errs map[types.Object]bool, statuses map[types.Object][]token.Position, out *[]Finding) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "statusTable" || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				seenErr := make(map[types.Object]token.Position)
				for _, elt := range lit.Elts {
					row, ok := elt.(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, field := range row.Elts {
						expr := field
						if kv, ok := field.(*ast.KeyValueExpr); ok {
							expr = kv.Value
						}
						obj := exprObject(p, expr)
						if obj == nil {
							continue
						}
						pos := m.Fset.Position(expr.Pos())
						switch o := obj.(type) {
						case *types.Const:
							if prev := statuses[o]; len(prev) > 0 {
								*out = append(*out, Finding{
									Analyzer: "errclass",
									Pos:      pos,
									Message:  fmt.Sprintf("statusTable is not a bijection: status %s already mapped at %s", o.Name(), shortPos(m, prev[0])),
								})
							}
							statuses[o] = append(statuses[o], pos)
						case *types.Var:
							if prev, dup := seenErr[o]; dup {
								*out = append(*out, Finding{
									Analyzer: "errclass",
									Pos:      pos,
									Message:  fmt.Sprintf("statusTable is not a bijection: sentinel %s already mapped at %s", o.Name(), shortPos(m, prev)),
								})
							} else {
								seenErr[o] = pos
							}
							errs[o] = true
						}
					}
				}
			}
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

type constInfo struct {
	obj *types.Const
	doc *ast.CommentGroup
}

// namedType returns the named type declared in p, or nil.
func namedType(p *Package, name string) types.Type {
	if o := p.Types.Scope().Lookup(name); o != nil {
		if tn, ok := o.(*types.TypeName); ok {
			return tn.Type()
		}
	}
	return nil
}

// constantsOf returns the package-level constants of exactly type t, with
// their doc comments. Blank placeholders (a retired iota value kept
// reserved) name nothing and are skipped.
func constantsOf(p *Package, t types.Type) []constInfo {
	var out []constInfo
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
					c, _ := p.Info.Defs[name].(*types.Const)
					if c != nil && c.Name() != "_" && types.Identical(c.Type(), t) {
						out = append(out, constInfo{obj: c, doc: doc})
					}
				}
			}
		}
	}
	return out
}

// checkExhaustiveSwitches enforces rule 5 module-wide.
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
					if !covered[c.obj] {
						missing = append(missing, c.obj.Name())
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

// shortPos renders a position relative to the module root for messages.
func shortPos(m *Module, p token.Position) string {
	name := p.Filename
	if rel := strings.TrimPrefix(name, m.Root+"/"); rel != name {
		name = rel
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
