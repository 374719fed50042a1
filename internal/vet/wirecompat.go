package vet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WireCompat freezes the wire protocol's numeric registries against a
// committed golden file, protecting mixed-version replication and
// failover: a primary on one build streams to replicas on another, and a
// client that learned StatusTailTruncated as 16 must keep meaning the same
// thing to every future server. The registries are the proto package's
// Msg* message-type constants and Status codes; both are assigned by iota,
// so an innocent insertion in the middle of the const block silently
// renumbers everything below it — the exact bug shape the "appended ...
// to keep existing wire values stable" comments in the proto package are
// defending against by convention. This analyzer turns the convention into
// a gate:
//
//   - every Msg*/Status constant must appear in internal/proto/wire.golden
//     with its current value (new constants are appended with
//     `ermia-vet -update-wire-golden`, a reviewable diff);
//   - a value drifting from the golden is a renumber; a new constant
//     taking a value the golden assigns to another name is an insertion;
//   - golden entries may leave the code only by being retired in place
//     (rewrite `msg MsgOld 7` to `retired msg MsgOld 7`), and retired
//     values may never be reused;
//   - no two live constants of one kind may share a value.
//
// The golden file lives next to the code it freezes and is line-oriented:
// '#' comments, then `msg <Name> <value>`, `status <Name> <value>`, and
// `retired <kind> <Name> <value>` entries in any order.
var WireCompat = &Analyzer{
	Name: "wirecompat",
	Doc:  "proto message-type and status registries are append-only against wire.golden",
	Run:  runWireCompat,
}

// WireGoldenName is the registry file's name inside the proto package.
const WireGoldenName = "wire.golden"

// wireConst is one live registry constant in the code.
type wireConst struct {
	kind  string // "msg" or "status"
	name  string
	value int64
	pos   token.Pos
}

// wireEntry is one golden-file line.
type wireEntry struct {
	kind    string
	name    string
	value   int64
	retired bool
	line    int
}

func runWireCompat(m *Module) []Finding {
	pkg := m.LookupSuffix("internal/proto")
	if pkg == nil {
		return nil
	}
	consts, anchors := wireConsts(pkg)
	if len(consts) == 0 {
		return nil
	}
	goldenPath := filepath.Join(pkg.Dir, WireGoldenName)
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Analyzer: "wirecompat",
			Pos:      m.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		report(anchors["msg"], "wire registry golden %s is missing; generate it with `ermia-vet -update-wire-golden` and commit it", WireGoldenName)
		return out
	}
	entries, perr := parseWireGolden(string(data))
	if perr != "" {
		report(anchors["msg"], "wire registry golden %s is malformed: %s", WireGoldenName, perr)
		return out
	}

	type key struct {
		kind, name string
	}
	live := make(map[key]wireEntry)
	retiredVals := make(map[string]map[int64]string) // kind -> value -> retired name
	goldenByVal := make(map[string]map[int64]string) // kind -> value -> live golden name
	for _, e := range entries {
		if e.retired {
			if retiredVals[e.kind] == nil {
				retiredVals[e.kind] = make(map[int64]string)
			}
			retiredVals[e.kind][e.value] = e.name
			continue
		}
		if prev, dup := live[key{e.kind, e.name}]; dup {
			report(anchors[e.kind], "wire registry golden %s lists %s %s twice (lines %d and %d)", WireGoldenName, e.kind, e.name, prev.line, e.line)
			continue
		}
		live[key{e.kind, e.name}] = e
		if goldenByVal[e.kind] == nil {
			goldenByVal[e.kind] = make(map[int64]string)
		}
		goldenByVal[e.kind][e.value] = e.name
	}

	// Code-side walk, in source order.
	seenVals := make(map[string]map[int64]string) // kind -> value -> first code name
	inCode := make(map[key]bool)
	for _, c := range consts {
		k := key{c.kind, c.name}
		inCode[k] = true
		if seenVals[c.kind] == nil {
			seenVals[c.kind] = make(map[int64]string)
		}
		first, dup := seenVals[c.kind][c.value]
		if !dup {
			seenVals[c.kind][c.value] = c.name
		}

		if g, ok := live[k]; ok {
			if g.value != c.value {
				report(c.pos, "%s is renumbered: wire value %d in code but %d in %s — appended constants must go at the end of the block, and committed values are frozen", c.name, c.value, g.value, WireGoldenName)
			}
			continue
		}
		// Not in the golden: diagnose the most specific cause.
		switch {
		case goldenByVal[c.kind][c.value] != "":
			report(c.pos, "%s takes wire value %d, which %s assigns to %s — it was inserted mid-block and renumbered everything after it", c.name, c.value, WireGoldenName, goldenByVal[c.kind][c.value])
		case retiredVals[c.kind][c.value] != "":
			report(c.pos, "%s reuses retired wire value %d (previously %s); retired values are dead forever — old peers still interpret them", c.name, c.value, retiredVals[c.kind][c.value])
		case dup:
			report(c.pos, "%s duplicates live wire value %d already taken by %s", c.name, c.value, first)
		default:
			report(c.pos, "%s (wire value %d) is not in %s; append it with `ermia-vet -update-wire-golden` and commit the diff", c.name, c.value, WireGoldenName)
		}
	}

	// Golden entries gone from the code without being retired.
	var removed []wireEntry
	for k, e := range live {
		if !inCode[k] {
			removed = append(removed, e)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].line < removed[j].line })
	for _, e := range removed {
		report(anchors[e.kind], "golden entry %s %s (wire value %d) is no longer declared; deleting a wire constant breaks old peers — retire it in %s instead (`retired %s %s %d`)",
			e.kind, e.name, e.value, WireGoldenName, e.kind, e.name, e.value)
	}
	return out
}

// wireConsts collects the registry constants: Msg*-named byte constants
// and constants of the package's Status type. anchors maps each kind to a
// stable code position (the first constant of that kind) for findings that
// have no constant of their own to point at. Blank placeholders reserve a
// retired value and declare nothing, so they are skipped.
func wireConsts(pkg *Package) ([]wireConst, map[string]token.Pos) {
	var out []wireConst
	anchors := map[string]token.Pos{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pkg.Info.Defs[name].(*types.Const)
					if !ok || obj.Name() == "_" {
						continue
					}
					kind := wireKindOf(pkg, obj)
					if kind == "" {
						continue
					}
					v, ok := constant.Int64Val(constant.ToInt(obj.Val()))
					if !ok {
						continue
					}
					if _, have := anchors[kind]; !have {
						anchors[kind] = name.Pos()
					}
					out = append(out, wireConst{kind: kind, name: obj.Name(), value: v, pos: name.Pos()})
				}
			}
		}
	}
	// Findings about one kind may anchor at the other if a kind is absent.
	if _, ok := anchors["msg"]; !ok {
		anchors["msg"] = anchors["status"]
	}
	if _, ok := anchors["status"]; !ok {
		anchors["status"] = anchors["msg"]
	}
	return out, anchors
}

func wireKindOf(pkg *Package, obj *types.Const) string {
	if named, ok := obj.Type().(*types.Named); ok &&
		named.Obj().Name() == "Status" && named.Obj().Pkg() == pkg.Types {
		return "status"
	}
	if strings.HasPrefix(obj.Name(), "Msg") {
		if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return "msg"
		}
	}
	return ""
}

func parseWireGolden(data string) (entries []wireEntry, errMsg string) {
	for i, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func() ([]wireEntry, string) {
			return nil, fmt.Sprintf("line %d: want `msg <Name> <value>`, `status <Name> <value>`, or `retired <kind> <Name> <value>`, got %q", i+1, line)
		}
		e := wireEntry{line: i + 1}
		if f[0] == "retired" {
			if len(f) != 4 {
				return bad()
			}
			e.retired = true
			f = f[1:]
		} else if len(f) != 3 {
			return bad()
		}
		e.kind = f[0]
		if e.kind != "msg" && e.kind != "status" {
			return bad()
		}
		e.name = f[1]
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return bad()
		}
		e.value = v
		entries = append(entries, e)
	}
	return entries, ""
}

// WriteWireGolden (re)generates the golden registry from the code,
// preserving existing retired entries; returns the path written. This is
// the only sanctioned way to change the file: the diff it produces is
// append-only when the code change was, and a reviewer sees exactly which
// values a renumber would rewrite.
func WriteWireGolden(m *Module) (string, error) {
	pkg := m.LookupSuffix("internal/proto")
	if pkg == nil {
		return "", fmt.Errorf("vet: module has no internal/proto package")
	}
	consts, _ := wireConsts(pkg)
	if len(consts) == 0 {
		return "", fmt.Errorf("vet: internal/proto declares no wire registry constants")
	}
	path := filepath.Join(pkg.Dir, WireGoldenName)

	var retired []wireEntry
	if data, err := os.ReadFile(path); err == nil {
		if entries, perr := parseWireGolden(string(data)); perr == "" {
			for _, e := range entries {
				if e.retired {
					retired = append(retired, e)
				}
			}
		}
	}

	sort.SliceStable(consts, func(i, j int) bool {
		if consts[i].kind != consts[j].kind {
			return consts[i].kind == "msg"
		}
		return consts[i].value < consts[j].value
	})
	var b strings.Builder
	b.WriteString("# ermia wire registry — append-only; values are frozen once committed.\n")
	b.WriteString("# Regenerate with `ermia-vet -update-wire-golden` (appends new constants);\n")
	b.WriteString("# to drop a constant, rewrite its line as `retired <kind> <Name> <value>`.\n")
	for _, c := range consts {
		fmt.Fprintf(&b, "%s %s %d\n", c.kind, c.name, c.value)
	}
	for _, e := range retired {
		fmt.Fprintf(&b, "retired %s %s %d\n", e.kind, e.name, e.value)
	}
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}
