package vet

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// want is one expectation comment: `// want ` followed by a backquoted
// regexp, placed on the line the finding must land on.
type want struct {
	file string // relative to the fixture root
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// loadFixture loads one testdata mini-module under the module path "fix".
// The fixtures mirror the real repo's path suffixes (internal/engine,
// internal/proto, ...) so the analyzers' suffix-keyed lookups resolve
// identically.
func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	m, err := Load(filepath.Join("testdata", name), "fix")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return m
}

// collectWants scans every fixture file for expectation comments.
func collectWants(t *testing.T, m *Module) []*want {
	t.Helper()
	var out []*want
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					match := wantRe.FindStringSubmatch(c.Text)
					if match == nil {
						continue
					}
					re, err := regexp.Compile(match[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", match[1], err)
					}
					pos := m.Fset.Position(c.Pos())
					rel, err := filepath.Rel(m.Root, pos.Filename)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, &want{file: filepath.ToSlash(rel), line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// TestFixtures runs each analyzer over its fixture mini-module and diffs the
// findings against the `// want` expectations: every finding must be
// expected, every expectation must fire.
func TestFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			m := loadFixture(t, a.Name)
			findings := RelFindings(m.Root, Run(m, []*Analyzer{a}))
			wants := collectWants(t, m)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", a.Name)
			}
			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
						w.hit = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected finding at %s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Message)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("expected finding at %s:%d matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestAllowSuppression proves a finding vanishes when the flagged line gains
// a justified //ermia:allow: the nodeterminism fixture carries one allowed
// map range whose twin two lines up is flagged.
func TestAllowSuppression(t *testing.T) {
	m := loadFixture(t, "nodeterminism")
	findings := Run(m, []*Analyzer{NoDeterminism})
	mapFindings := 0
	for _, f := range findings {
		if strings.Contains(f.Message, "map iteration") {
			mapFindings++
		}
	}
	if mapFindings != 1 {
		t.Fatalf("want exactly 1 map-iteration finding (the unallowed range), got %d", mapFindings)
	}
}

// TestJSONGolden locks the machine-readable schema: stable field names,
// always an array, findings in deterministic order.
func TestJSONGolden(t *testing.T) {
	m := loadFixture(t, "nodeterminism")
	findings := RelFindings(m.Root, Run(m, []*Analyzer{NoDeterminism}))
	got, err := JSON(findings)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "nodeterminism.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(got) != string(wantBytes) {
		t.Errorf("JSON output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, wantBytes)
	}
}

// TestJSONEmpty: an empty finding set must encode as [], not null.
func TestJSONEmpty(t *testing.T) {
	b, err := JSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "[]" {
		t.Errorf("empty findings must encode as [], got %q", b)
	}
}

// TestByName covers subset selection and the unknown-analyzer error.
func TestByName(t *testing.T) {
	as, err := ByName([]string{"lockorder", "errclass"})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "errclass" || as[1].Name != "lockorder" {
		t.Errorf("ByName returned wrong subset: %v", names(as))
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Error("ByName must reject unknown analyzer names")
	}
}

func names(as []*Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

// TestTextFormat locks the human-readable line format.
func TestTextFormat(t *testing.T) {
	m := loadFixture(t, "lockorder")
	findings := RelFindings(m.Root, Run(m, []*Analyzer{LockOrder}))
	text := Text(findings)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !regexp.MustCompile(`^[^:]+:\d+:\d+: lockorder: `).MatchString(line) {
			t.Errorf("malformed text line: %q", line)
		}
	}
}

// TestRepoClean is the self-gate: the full suite over the real module must
// report nothing. Every invariant the analyzers enforce is part of the
// repo's tier-1 contract, and the annotations in the tree are the audit
// trail. Skipped in -short mode: the race-detector pass re-runs packages
// with -short and does not need to pay for a second whole-module load.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis skipped in -short mode")
	}
	m, err := LoadModule(".")
	if err != nil {
		t.Fatalf("load repo module: %v", err)
	}
	findings := RelFindings(m.Root, Run(m, Analyzers()))
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		t.Error("the tree must be vet-clean; fix the findings or add justified //ermia:allow annotations")
	}
}

// TestLoaderSuffixLookup pins the suffix-keyed package resolution the
// analyzers rely on to work against both real and fixture layouts.
func TestLoaderSuffixLookup(t *testing.T) {
	m := loadFixture(t, "errclass")
	if p := m.LookupSuffix("internal/engine"); p == nil || p.Path != "fix/internal/engine" {
		t.Fatalf("LookupSuffix(internal/engine) = %v", p)
	}
	if p := m.Lookup("fix/internal/proto"); p == nil {
		t.Fatal("Lookup by full path failed")
	}
	if p := m.LookupSuffix("no/such/pkg"); p != nil {
		t.Fatalf("LookupSuffix of absent package = %v", p.Path)
	}
}
