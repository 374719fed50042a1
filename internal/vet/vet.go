// Package vet is ermia-vet's engine: a from-scratch, stdlib-only static
// analysis driver (go/parser, go/ast, go/types, go/importer — no x/tools)
// plus six repo-specific analyzers enforcing the invariants the Go
// compiler cannot see:
//
//   - epochguard: functions that dereference latch-free version chains
//     (//ermia:guarded) may only be called from other guarded functions or
//     from audited guard boundaries (//ermia:guard-entry), proving chain
//     walks stay under an epoch guard.
//   - errclass: every exported sentinel error in engine, core and wal is
//     classified by the retry taxonomy; switches over //ermia:exhaustive
//     enum types must cover every constant.
//   - hotalloc: //ermia:hotpath functions must have zero heap escapes per
//     the real compiler's escape analysis (go build -gcflags=-m).
//   - lockorder: the static mutex acquisition-order graph must be acyclic.
//   - nodeterminism: files marked //ermia:deterministic (crash-sweep,
//     replay, and fault-injection infrastructure) must not read clocks,
//     use math/rand, or iterate maps in unspecified order.
//   - txnlifecycle: every engine.Txn produced by a Begin* call reaches
//     exactly one Commit or Abort on every path — no leaks, no
//     use-after-finish, no double-finish — with interprocedural summaries
//     for helpers and //ermia:txn-owner audits for handles whose ownership
//     escapes the function.
//
// The wire registry and the status<->error bijection are facts about one
// package and are checked by internal/proto's own tests.
//
// Findings are suppressed, one site at a time, with a justified
// "//ermia:allow <analyzer> <reason>" comment on (or immediately above) the
// offending line. The driver validates the directives themselves — unknown
// verbs, malformed allows, and allows that no longer suppress anything are
// findings too (pseudo-analyzer "directives").
package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Analyzer is one registered pass. Analyzers see the whole module at once:
// several invariants (lock order, sentinel classification, transaction lifecycles)
// only exist across package boundaries.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// Analyzers returns the full registered suite, in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		EpochGuard,
		ErrClass,
		HotAlloc,
		LockOrder,
		NoDeterminism,
		TxnLifecycle,
	}
}

// ByName returns the named subset of the suite, preserving suite order.
func ByName(names []string) ([]*Analyzer, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range Analyzers() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("vet: unknown analyzer %q", n)
	}
	return out, nil
}

// Run executes the analyzers over the module and returns the surviving
// findings: deterministic order, //ermia:allow suppressions applied, plus
// the driver's own directive diagnostics (unknown verbs, malformed or
// unjustified allows, and stale suppressions — an allow whose analyzer ran
// and reported nothing on the covered lines is dead weight that would
// silently mask a future regression). Driver diagnostics carry the
// pseudo-analyzer name "directives".
func Run(m *Module, analyzers []*Analyzer) []Finding {
	allows, dirFindings := collectDirectives(m)
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(m) {
			if allows.allowed(a.Name, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	inRun := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		inRun[a.Name] = true
	}
	for _, e := range allows.entries {
		if !e.used && inRun[e.analyzer] {
			dirFindings = append(dirFindings, Finding{
				Analyzer: "directives",
				Pos:      e.pos,
				Message:  fmt.Sprintf("//ermia:allow %s suppresses nothing; delete the stale suppression", e.analyzer),
			})
		}
	}
	for _, f := range dirFindings {
		if allows.allowed("directives", f.Pos) {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// knownVerbs is every directive the suite understands; anything else after
// "//ermia:" is a typo that would otherwise rot silently (an annotation
// that suppresses or asserts nothing).
var knownVerbs = map[string]bool{
	"allow":         true,
	"classify":      true,
	"deterministic": true,
	"exhaustive":    true,
	"guard-entry":   true,
	"guarded":       true,
	"hotpath":       true,
	"txn-owner":     true,
}

// allowEntry is one //ermia:allow directive, tracking whether it actually
// suppressed a finding this run.
type allowEntry struct {
	analyzer string
	pos      token.Position
	used     bool
}

// allowSet indexes allow directives: analyzer name -> file -> covered line.
type allowSet struct {
	byLine  map[string]map[string]map[int]*allowEntry
	entries []*allowEntry
}

func (s *allowSet) add(e *allowEntry) {
	byFile := s.byLine[e.analyzer]
	if byFile == nil {
		byFile = make(map[string]map[int]*allowEntry)
		s.byLine[e.analyzer] = byFile
	}
	lines := byFile[e.pos.Filename]
	if lines == nil {
		lines = make(map[int]*allowEntry)
		byFile[e.pos.Filename] = lines
	}
	// A directive covers its own line (trailing comment) and the next line
	// (comment on the line above the flagged statement).
	lines[e.pos.Line] = e
	lines[e.pos.Line+1] = e
	s.entries = append(s.entries, e)
}

func (s *allowSet) allowed(analyzer string, pos token.Position) bool {
	e := s.byLine[analyzer][pos.Filename][pos.Line]
	if e == nil {
		return false
	}
	e.used = true
	return true
}

// collectDirectives gathers the allow suppressions and validates every
// directive in the module: unknown verbs, allows that name no (or an
// unknown) analyzer, and allows without a justification are findings.
func collectDirectives(m *Module) (*allowSet, []Finding) {
	validNames := map[string]bool{"directives": true}
	for _, a := range Analyzers() {
		validNames[a.Name] = true
	}
	s := &allowSet{byLine: make(map[string]map[string]map[int]*allowEntry)}
	var findings []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					if !knownVerbs[d.verb] {
						findings = append(findings, Finding{
							Analyzer: "directives",
							Pos:      pos,
							Message:  fmt.Sprintf("unknown directive //ermia:%s; the suite understands none of its arguments", d.verb),
						})
						continue
					}
					if d.verb != "allow" {
						continue
					}
					if len(d.args) == 0 {
						findings = append(findings, Finding{
							Analyzer: "directives",
							Pos:      pos,
							Message:  "//ermia:allow names no analyzer; write //ermia:allow <analyzer> <reason>",
						})
						continue
					}
					if !validNames[d.args[0]] {
						findings = append(findings, Finding{
							Analyzer: "directives",
							Pos:      pos,
							Message:  fmt.Sprintf("//ermia:allow names unknown analyzer %q; it suppresses nothing", d.args[0]),
						})
						continue
					}
					if len(d.args) < 2 {
						findings = append(findings, Finding{
							Analyzer: "directives",
							Pos:      pos,
							Message:  fmt.Sprintf("//ermia:allow %s carries no reason; every suppression must say why", d.args[0]),
						})
						// Still honor it: an unjustified allow is a finding,
						// not a re-opened one.
					}
					s.add(&allowEntry{analyzer: d.args[0], pos: pos})
				}
			}
		}
	}
	return s, findings
}

// RelFindings rewrites finding file names relative to root with forward
// slashes, for stable output across machines.
func RelFindings(root string, fs []Finding) []Finding {
	out := make([]Finding, len(fs))
	for i, f := range fs {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		out[i] = f
	}
	return out
}

// Text renders findings one per line: file:line:col: analyzer: message.
func Text(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	return b.String()
}

// jsonFinding is the machine-readable schema: stable field names for CI
// annotations and future tooling.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// JSON renders findings as an indented JSON array (always an array, never
// null, so consumers can range without nil checks).
func JSON(fs []Finding) ([]byte, error) {
	out := make([]jsonFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      col(f.Pos),
			Message:  f.Message,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// col guards against zero columns from synthesized positions.
func col(p token.Position) int {
	if p.Column < 1 {
		return 1
	}
	return p.Column
}
