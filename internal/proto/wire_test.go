package proto

import (
	"flag"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The wire registry — the Msg* message types and the Status codes — is
// frozen against wire.golden. Both are assigned by iota, so an innocent
// insertion in the middle of a const block renumbers everything below it,
// and a peer on another build (a replica, a failover client) would read
// every later value as something else. The golden file is line-oriented:
// '#' comments, then `msg <Name> <value>`, `status <Name> <value>` and
// `retired <kind> <Name> <value>` entries in any order. A retired entry
// burns its value for good.

var update = flag.Bool("update", false, "append new registry constants to wire.golden, keeping every existing line")

const wireGolden = "wire.golden"

const wireGoldenHeader = `# ermia wire registry — append-only; values are frozen once committed.
# Append new constants with ` + "`go test ./internal/proto -run TestWireRegistry -update`" + `;
# to drop a constant, rewrite its line as ` + "`retired <kind> <Name> <value>`" + `.
`

// wireConst is one registry constant, in code or in the golden file.
type wireConst struct {
	kind  string // "msg" or "status"
	name  string
	value int64
}

// wireEntry is one golden line.
type wireEntry struct {
	wireConst
	retired bool
}

type wireName struct{ kind, name string }

type wireValue struct {
	kind  string
	value int64
}

// parseSources parses the non-test Go files of the package in dir.
func parseSources(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return fset, files
}

// registryConsts returns the package's registry constants in source
// order: Msg*-named integer constants and constants of type Status. Only
// `type Status` and the const blocks are type-checked, as one synthetic
// file; they refer to nothing but iota, predeclared types and Status, so
// no importer is needed. Blank placeholders reserve a retired value and
// declare nothing, so they are skipped.
func registryConsts(t *testing.T) []wireConst {
	t.Helper()
	fset, files := parseSources(t, ".")
	synth := &ast.File{Name: ast.NewIdent("proto")}
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			if gd.Tok == token.CONST {
				synth.Decls = append(synth.Decls, gd)
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Status" {
					synth.Decls = append(synth.Decls, &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{ts}})
				}
			}
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	pkg, err := new(types.Config).Check("proto", fset, []*ast.File{synth}, info)
	if err != nil {
		t.Fatalf("type-check the const blocks: %v", err)
	}
	status := pkg.Scope().Lookup("Status")
	var out []wireConst
	for _, d := range synth.Decls {
		gd := d.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				c, _ := info.Defs[id].(*types.Const)
				if c == nil || c.Name() == "_" {
					continue
				}
				var kind string
				if named, ok := c.Type().(*types.Named); ok && named.Obj() == status {
					kind = "status"
				} else if b, ok := c.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 && strings.HasPrefix(c.Name(), "Msg") {
					kind = "msg"
				} else {
					continue
				}
				v, _ := constant.Int64Val(c.Val())
				out = append(out, wireConst{kind: kind, name: c.Name(), value: v})
			}
		}
	}
	return out
}

// parseWireGolden reads the golden text. Within a kind, every name and
// every value, live or retired, appears at most once.
func parseWireGolden(text string) ([]wireEntry, error) {
	var out []wireEntry
	names := map[wireName]int{}
	values := map[wireValue]int{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		var e wireEntry
		if len(f) == 4 && f[0] == "retired" {
			e.retired = true
			f = f[1:]
		}
		v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if len(f) != 3 || (f[0] != "msg" && f[0] != "status") || err != nil {
			return nil, fmt.Errorf("%s line %d: want `msg <Name> <value>`, `status <Name> <value>` or `retired <kind> <Name> <value>`, got %q", wireGolden, i+1, line)
		}
		e.wireConst = wireConst{kind: f[0], name: f[1], value: v}
		if prev, dup := names[wireName{e.kind, e.name}]; dup {
			return nil, fmt.Errorf("%s lists %s %s twice (lines %d and %d)", wireGolden, e.kind, e.name, prev, i+1)
		}
		if prev, dup := values[wireValue{e.kind, e.value}]; dup {
			return nil, fmt.Errorf("%s gives %s value %d twice (lines %d and %d)", wireGolden, e.kind, e.value, prev, i+1)
		}
		names[wireName{e.kind, e.name}] = i + 1
		values[wireValue{e.kind, e.value}] = i + 1
		out = append(out, e)
	}
	return out, nil
}

// checkWire diffs the registry constants in code against the golden text
// and returns one message per break: a renumbered constant, a new name on
// a value the golden already gives a live or retired entry, two live
// constants of one kind on one value, a new constant missing from the
// golden, and a live golden entry the code no longer declares.
func checkWire(code []wireConst, golden string) []string {
	entries, err := parseWireGolden(golden)
	if err != nil {
		return []string{err.Error()}
	}
	byName := map[wireName]wireEntry{}
	byValue := map[wireValue]wireEntry{}
	for _, e := range entries {
		byName[wireName{e.kind, e.name}] = e
		byValue[wireValue{e.kind, e.value}] = e
	}
	var out []string
	inCode := map[wireName]bool{}
	codeByValue := map[wireValue]string{}
	for _, c := range code {
		inCode[wireName{c.kind, c.name}] = true
		first, dup := codeByValue[wireValue{c.kind, c.value}]
		if !dup {
			codeByValue[wireValue{c.kind, c.value}] = c.name
		}
		if g, ok := byName[wireName{c.kind, c.name}]; ok && !g.retired {
			if g.value != c.value {
				out = append(out, fmt.Sprintf("%s is renumbered: wire value %d in code but %d in %s; append new constants at the end of the block, committed values are frozen", c.name, c.value, g.value, wireGolden))
			}
			continue
		}
		switch held, taken := byValue[wireValue{c.kind, c.value}]; {
		case taken && held.retired:
			out = append(out, fmt.Sprintf("%s reuses retired wire value %d (previously %s); old peers still read that value the old way", c.name, c.value, held.name))
		case taken:
			out = append(out, fmt.Sprintf("%s takes wire value %d, which %s gives %s; it was inserted mid-block and renumbered what follows", c.name, c.value, wireGolden, held.name))
		case dup:
			out = append(out, fmt.Sprintf("%s duplicates live wire value %d already taken by %s", c.name, c.value, first))
		default:
			out = append(out, fmt.Sprintf("%s (wire value %d) is not in %s; append it with -update and commit the diff", c.name, c.value, wireGolden))
		}
	}
	for _, e := range entries {
		if !e.retired && !inCode[wireName{e.kind, e.name}] {
			out = append(out, fmt.Sprintf("%s entry %s %s (wire value %d) is no longer declared; retire it in place (`retired %s %s %d`) instead of deleting it", wireGolden, e.kind, e.name, e.value, e.kind, e.name, e.value))
		}
	}
	return out
}

// appendWire returns golden with a line appended for each code constant
// whose name and value it does not yet hold. Existing lines stay as they
// are, so a renumber, a reuse or a malformed line still fails checkWire
// afterwards.
func appendWire(code []wireConst, golden string) string {
	if golden == "" {
		golden = wireGoldenHeader
	}
	entries, _ := parseWireGolden(golden)
	names := map[wireName]bool{}
	values := map[wireValue]bool{}
	for _, e := range entries {
		names[wireName{e.kind, e.name}] = true
		values[wireValue{e.kind, e.value}] = true
	}
	var b strings.Builder
	b.WriteString(golden)
	for _, c := range code {
		if !names[wireName{c.kind, c.name}] && !values[wireValue{c.kind, c.value}] {
			fmt.Fprintf(&b, "%s %s %d\n", c.kind, c.name, c.value)
			values[wireValue{c.kind, c.value}] = true
		}
	}
	return b.String()
}

// TestWireRegistry freezes the live registry against wire.golden.
func TestWireRegistry(t *testing.T) {
	code := registryConsts(t)
	data, err := os.ReadFile(wireGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("read %s (create it with -update): %v", wireGolden, err)
	}
	golden := string(data)
	if *update {
		if next := appendWire(code, golden); next != golden {
			if err := os.WriteFile(wireGolden, []byte(next), 0o644); err != nil {
				t.Fatal(err)
			}
			golden = next
		}
	}
	for _, msg := range checkWire(code, golden) {
		t.Error(msg)
	}
}

// TestCheckWire runs the checker over each break shape against one golden
// frozen at an older revision.
func TestCheckWire(t *testing.T) {
	const golden = `# an older revision
msg MsgBegin 1
msg MsgCommit 2
retired msg MsgOld 3
status StatusOK 0
status StatusConflict 1
status StatusOverloaded 2
retired status StatusRetired 10
`
	base := []wireConst{
		{"msg", "MsgBegin", 1},
		{"msg", "MsgCommit", 2},
		{"status", "StatusOK", 0},
		{"status", "StatusConflict", 1},
		{"status", "StatusOverloaded", 2},
	}
	with := func(edit func([]wireConst) []wireConst) []wireConst {
		return edit(append([]wireConst(nil), base...))
	}
	for _, tc := range []struct {
		name   string
		code   []wireConst
		golden string
		want   []string // one substring per expected message, in order
	}{
		{name: "clean", code: base},
		{
			name: "renumbered",
			code: with(func(c []wireConst) []wireConst { c[1].value = 4; return c }),
			want: []string{"MsgCommit is renumbered: wire value 4 in code but 2"},
		},
		{
			name: "inserted mid-block",
			code: with(func(c []wireConst) []wireConst {
				c[4].value = 3
				return append(c[:4], append([]wireConst{{"status", "StatusInserted", 2}}, c[4:]...)...)
			}),
			want: []string{
				"StatusInserted takes wire value 2, which wire.golden gives StatusOverloaded",
				"StatusOverloaded is renumbered: wire value 3 in code but 2",
			},
		},
		{
			name: "reuses a retired msg value",
			code: append(base, wireConst{"msg", "MsgReuse", 3}),
			want: []string{"MsgReuse reuses retired wire value 3 (previously MsgOld)"},
		},
		{
			name: "reuses a retired status value",
			code: append(base, wireConst{"status", "StatusReuse", 10}),
			want: []string{"StatusReuse reuses retired wire value 10 (previously StatusRetired)"},
		},
		{
			name: "new and unregistered",
			code: append(base, wireConst{"status", "StatusNew", 4}),
			want: []string{"StatusNew (wire value 4) is not in wire.golden"},
		},
		{
			name: "two new constants on one value",
			code: append(base, wireConst{"msg", "MsgNewA", 9}, wireConst{"msg", "MsgNewB", 9}),
			want: []string{
				"MsgNewA (wire value 9) is not in wire.golden",
				"MsgNewB duplicates live wire value 9 already taken by MsgNewA",
			},
		},
		{
			name: "deleted instead of retired",
			code: base[:4],
			want: []string{"entry status StatusOverloaded (wire value 2) is no longer declared"},
		},
		{
			name:   "golden names one constant twice",
			code:   base,
			golden: golden + "msg MsgBegin 7\n",
			want:   []string{"lists msg MsgBegin twice"},
		},
		{
			name:   "golden gives one value twice",
			code:   base,
			golden: golden + "retired status StatusOther 1\n",
			want:   []string{"gives status value 1 twice"},
		},
		{
			name:   "malformed golden",
			code:   base,
			golden: golden + "msg MsgBegin\n",
			want:   []string{"want `msg <Name> <value>`"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.golden
			if g == "" {
				g = golden
			}
			got := checkWire(tc.code, g)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d messages, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("message %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}

// TestAppendWire: -update appends what is new and leaves every break
// standing, so it can never paper over a renumber or a reuse.
func TestAppendWire(t *testing.T) {
	const golden = "# header\nmsg MsgA 1\nretired msg MsgOld 2\n"
	code := []wireConst{{"msg", "MsgA", 1}, {"msg", "MsgReuse", 2}, {"msg", "MsgB", 3}, {"status", "StatusOK", 0}}
	got := appendWire(code, golden)
	if want := golden + "msg MsgB 3\nstatus StatusOK 0\n"; got != want {
		t.Fatalf("appendWire = %q, want %q", got, want)
	}
	if msgs := checkWire(code, got); len(msgs) != 1 || !strings.Contains(msgs[0], "MsgReuse reuses retired wire value 2") {
		t.Errorf("after the append, checkWire = %q, want only the reuse", msgs)
	}
	if got := appendWire(code[:1], ""); got != wireGoldenHeader+"msg MsgA 1\n" {
		t.Errorf("appendWire to an empty golden = %q", got)
	}
}
