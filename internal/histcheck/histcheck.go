// Package histcheck is a test substrate: it records the read/write
// footprints of committed transactions and checks the resulting dependency
// graph for cycles. A serializable execution must produce an acyclic graph
// over committed transactions; the property tests run random concurrent
// workloads against ERMIA-SSN and Silo-OCC and assert acyclicity, and
// against plain SI to demonstrate that write skew really occurs.
//
// Dependencies are derived from version numbers: every record carries a
// monotonically increasing logical version; a transaction records the
// version of each record it read and the version each of its writes
// created.
//
//   - WR (read dependency):  T2 read the version T1 wrote       → T1 ➝ T2
//   - WW (write dependency): T2 overwrote the version T1 wrote  → T1 ➝ T2
//   - RW (anti-dependency):  T1 read a version T2 overwrote     → T1 ➝ T2
//
// The checker is part of the reproducibility contract: given the same
// recorded history it must emit edges and cycles in the same order, so a
// failing seed prints the same counterexample every run.
//
//ermia:deterministic
package histcheck

import (
	"fmt"
	"sort"
	"sync"
)

// Op is one footprint element of a committed transaction.
type Op struct {
	Key     string
	Version uint64 // version read, or version created by a write
	Write   bool
}

// Txn is a committed transaction's footprint.
type Txn struct {
	ID  int
	Ops []Op
}

// History accumulates committed transactions. Safe for concurrent Record
// calls.
type History struct {
	mu   sync.Mutex
	txns []Txn
	next int
}

// New returns an empty history.
func New() *History { return &History{} }

// Record adds a committed transaction's footprint and returns its id.
func (h *History) Record(ops []Op) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	h.txns = append(h.txns, Txn{ID: id, Ops: append([]Op(nil), ops...)})
	return id
}

// Ops returns the footprint recorded under id, for failure messages.
func (h *History) Ops(id int) []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.txns) {
		return nil
	}
	return h.txns[id].Ops
}

// Len returns the number of committed transactions recorded.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.txns)
}

// Edge is one dependency in the serialization graph.
type Edge struct {
	From, To int
	Kind     string // "wr", "ww", "rw"
	Key      string
}

// Graph computes the dependency edges of the recorded history.
func (h *History) Graph() []Edge {
	h.mu.Lock()
	txns := append([]Txn(nil), h.txns...)
	h.mu.Unlock()

	// Per key: writers by created version, readers by read version.
	type access struct {
		txn     int
		version uint64
	}
	writers := map[string][]access{}
	readers := map[string][]access{}
	for _, t := range txns {
		for _, op := range t.Ops {
			if op.Write {
				writers[op.Key] = append(writers[op.Key], access{t.ID, op.Version})
			} else {
				readers[op.Key] = append(readers[op.Key], access{t.ID, op.Version})
			}
		}
	}

	// Iterate keys in sorted order: map order would randomize edge order
	// (and therefore which cycle FindCycle reports) between runs.
	keys := make([]string, 0, len(writers))
	//ermia:allow nodeterminism collecting keys to sort; order does not escape
	for key := range writers {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	var edges []Edge
	for _, key := range keys {
		ws := writers[key]
		sort.Slice(ws, func(i, j int) bool { return ws[i].version < ws[j].version })
		// WW edges: consecutive writers of the same key.
		for i := 1; i < len(ws); i++ {
			if ws[i-1].txn != ws[i].txn {
				edges = append(edges, Edge{ws[i-1].txn, ws[i].txn, "ww", key})
			}
		}
		// WR and RW edges.
		for _, r := range readers[key] {
			// The writer that created the version r read.
			idx := sort.Search(len(ws), func(i int) bool { return ws[i].version >= r.version })
			if idx < len(ws) && ws[idx].version == r.version && ws[idx].txn != r.txn {
				edges = append(edges, Edge{ws[idx].txn, r.txn, "wr", key})
			}
			// The writer that overwrote it (first version greater).
			j := sort.Search(len(ws), func(i int) bool { return ws[i].version > r.version })
			if j < len(ws) && ws[j].txn != r.txn {
				edges = append(edges, Edge{r.txn, ws[j].txn, "rw", key})
			}
		}
	}
	return edges
}

// FindCycle returns a dependency cycle among committed transactions, or nil
// if the graph is acyclic (the execution is serializable).
func (h *History) FindCycle() []Edge {
	edges := h.Graph()
	adj := map[int][]Edge{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var stack []Edge
	var cycle []Edge

	var dfs func(n int) bool
	dfs = func(n int) bool {
		color[n] = gray
		for _, e := range adj[n] {
			switch color[e.To] {
			case gray:
				// Found a back edge: extract the cycle from the stack.
				cycle = append(cycle, e)
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i].From == e.To {
						break
					}
				}
				return true
			case white:
				stack = append(stack, e)
				if dfs(e.To) {
					return true
				}
				stack = stack[:len(stack)-1]
			}
		}
		color[n] = black
		return false
	}
	// Root the DFS at ascending node ids so the reported cycle is the same
	// every run regardless of map order.
	nodes := make([]int, 0, len(adj))
	//ermia:allow nodeterminism collecting keys to sort; order does not escape
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if color[n] == white {
			if dfs(n) {
				return cycle
			}
		}
	}
	return nil
}

// Describe renders a cycle for test failure messages.
func Describe(cycle []Edge) string {
	if len(cycle) == 0 {
		return "acyclic"
	}
	s := ""
	for _, e := range cycle {
		s += fmt.Sprintf("T%d -%s(%s)-> T%d; ", e.From, e.Kind, e.Key, e.To)
	}
	return s
}
