package proto

import (
	"errors"
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"ermia/internal/engine"
)

// sentinelValues resolves sentinel names, qualified by package, to their
// runtime values. The exhaustiveness test below enumerates the names
// straight from the engine's and this package's source, so adding a
// sentinel without extending this map (and, unless it is wire-local, the
// statusTable) fails the test with a pointed message rather than silently
// shipping an error the wire cannot carry.
var sentinelValues = map[string]error{
	"engine.ErrNotFound":         engine.ErrNotFound,
	"engine.ErrDuplicate":        engine.ErrDuplicate,
	"engine.ErrWriteConflict":    engine.ErrWriteConflict,
	"engine.ErrReadValidation":   engine.ErrReadValidation,
	"engine.ErrSerialization":    engine.ErrSerialization,
	"engine.ErrPhantom":          engine.ErrPhantom,
	"engine.ErrAborted":          engine.ErrAborted,
	"engine.ErrReadOnlyDegraded": engine.ErrReadOnlyDegraded,
	"engine.ErrReplicaReadOnly":  engine.ErrReplicaReadOnly,
	"engine.ErrConnLost":         engine.ErrConnLost,
	"engine.ErrOverloaded":       engine.ErrOverloaded,
	"engine.ErrShutdown":         engine.ErrShutdown,
	"engine.ErrRetriesExhausted": engine.ErrRetriesExhausted,
	"engine.ErrNoCheckpoint":     engine.ErrNoCheckpoint,
	"engine.ErrDeadlineExceeded": engine.ErrDeadlineExceeded,
	"engine.ErrStaleEpoch":       engine.ErrStaleEpoch,
	"engine.ErrBadQueryPlan":     engine.ErrBadQueryPlan,
	"engine.ErrQueryCancelled":   engine.ErrQueryCancelled,
	"engine.ErrQueryOverflow":    engine.ErrQueryOverflow,
	"engine.ErrTxnInDoubt":       engine.ErrTxnInDoubt,
	"engine.ErrShardMoved":       engine.ErrShardMoved,
	"proto.ErrBadFrame":          ErrBadFrame,
	"proto.ErrFrameTooLarge":     ErrFrameTooLarge,
	"proto.ErrUnknownTxn":        ErrUnknownTxn,
	"proto.ErrUnknownTable":      ErrUnknownTable,
	"proto.ErrBadRequest":        ErrBadRequest,
}

// sentinelDecl is one parsed sentinel declaration.
type sentinelDecl struct {
	name  string // package-qualified, as in sentinelValues
	local bool   // declaration carries //ermia:classify local
}

// parseSentinels enumerates the exported Err* package variables of the
// engine and of this package from their source, with their
// //ermia:classify annotations.
func parseSentinels(t *testing.T) []sentinelDecl {
	t.Helper()
	var out []sentinelDecl
	for _, pkg := range []struct{ name, dir string }{{"engine", "../engine"}, {"proto", "."}} {
		_, files := parseSources(t, pkg.dir)
		for _, file := range files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					doc := vs.Doc
					if doc == nil {
						doc = gd.Doc
					}
					local := false
					if doc != nil {
						for _, c := range doc.List {
							if rest, ok := strings.CutPrefix(c.Text, "//ermia:classify "); ok {
								for _, tok := range strings.Fields(rest) {
									if tok == "local" {
										local = true
									}
								}
							}
						}
					}
					for _, id := range vs.Names {
						if ast.IsExported(id.Name) && strings.HasPrefix(id.Name, "Err") {
							out = append(out, sentinelDecl{name: pkg.name + "." + id.Name, local: local})
						}
					}
				}
			}
		}
	}
	return out
}

// TestStatusBijectionExhaustive proves the status<->error mapping is a true
// bijection over the full error taxonomy: every engine and proto sentinel
// either round-trips through a distinct wire status or is explicitly
// annotated as wire-local, and every status code rebuilds the exact
// sentinel it came from.
func TestStatusBijectionExhaustive(t *testing.T) {
	sentinels := parseSentinels(t)

	seenStatus := make(map[Status]string)
	for _, s := range sentinels {
		err, ok := sentinelValues[s.name]
		if !ok {
			t.Errorf("%s is not in sentinelValues; add it here and decide its wire mapping", s.name)
			continue
		}
		status, detail := StatusOf(err)
		if s.local {
			if status != StatusInternal {
				t.Errorf("%s is annotated //ermia:classify local but maps to wire status %d", s.name, status)
			}
			continue
		}
		if status == StatusInternal {
			t.Errorf("%s has no dedicated wire status (fell through to StatusInternal %q); add a statusTable row or annotate it //ermia:classify local", s.name, detail)
			continue
		}
		if prev, dup := seenStatus[status]; dup {
			t.Errorf("%s and %s share wire status %d; the mapping must be injective", s.name, prev, status)
		}
		seenStatus[status] = s.name

		// And back: the client must rebuild the identical sentinel object so
		// errors.Is and Classify behave exactly as they do in process.
		back := status.Err("")
		if !errors.Is(back, err) {
			t.Errorf("status %d rebuilds %v, not %s", status, back, s.name)
		}
		if back != err {
			t.Errorf("status %d rebuilds a different error instance than %s", status, s.name)
		}
	}
}

// TestStatusTableIsBijection audits the table itself row by row: no status
// and no sentinel appears twice, and both mapping directions agree with
// every row.
func TestStatusTableIsBijection(t *testing.T) {
	byStatus := make(map[Status]int)
	byErr := make(map[error]int)
	for i, row := range statusTable {
		if prev, dup := byStatus[row.status]; dup {
			t.Errorf("rows %d and %d both map status %d", prev, i, row.status)
		}
		if prev, dup := byErr[row.err]; dup {
			t.Errorf("rows %d and %d both map error %v", prev, i, row.err)
		}
		byStatus[row.status] = i
		byErr[row.err] = i

		if got, _ := StatusOf(row.err); got != row.status {
			t.Errorf("StatusOf(%v) = %d, table row says %d", row.err, got, row.status)
		}
		if got := row.status.Err(""); got != row.err {
			t.Errorf("Status(%d).Err() = %v, table row says %v", row.status, got, row.err)
		}
	}
}

// TestStatusCodeCoverage walks every Status constant the source declares:
// each is either one of the two special codes or backed by a table row, so
// no constant can be added to the iota block, in the middle or at the end,
// without a mapping decision. StatusOK maps to a nil error and
// StatusInternal carries arbitrary text; neither is a fixed sentinel.
func TestStatusCodeCoverage(t *testing.T) {
	if got, _ := StatusOf(nil); got != StatusOK {
		t.Errorf("StatusOf(nil) = %d, want StatusOK", got)
	}
	if err := StatusOK.Err(""); err != nil {
		t.Errorf("StatusOK.Err() = %v, want nil", err)
	}
	for _, c := range registryConsts(t) {
		if c.kind != "status" || c.name == "StatusOK" || c.name == "StatusInternal" {
			continue
		}
		s := Status(c.value)
		found := false
		for _, row := range statusTable {
			if row.status == s {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s (status code %d) has no statusTable row and is not a special code", c.name, s)
		}
	}
	// StatusInternal carries arbitrary text and must round-trip as itself.
	err := StatusInternal.Err("disk on fire")
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("StatusInternal.Err must carry the detail text, got %v", err)
	}
	if got, detail := StatusOf(err); got != StatusInternal || detail == "" {
		t.Errorf("StatusOf of an internal error = %d (%q), want StatusInternal with detail", got, detail)
	}
}
