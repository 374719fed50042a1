package query

import (
	"fmt"

	"ermia/internal/engine"
)

// NodeKind discriminates the plan AST.
type NodeKind uint8

const (
	// NodeScan reads a table (or a key range of it) and decodes rows with
	// the inline Schema. Secondary indexes are plain tables in this repo,
	// so an index-range scan is a Scan of the index table with Lo/Hi set.
	NodeScan NodeKind = 1
	// NodeFilter keeps rows whose predicate evaluates to a non-zero Int.
	NodeFilter NodeKind = 2
	// NodeProject computes one output column per expression.
	NodeProject NodeKind = 3
	// NodeHashJoin equi-joins Left and Right: the Right input is
	// materialized into a hash table keyed on RightKeys, then Left rows
	// probe on LeftKeys; output is leftRow ++ rightRow. Key equality is
	// strict on kind (Int 1 does not join Float 1.0).
	NodeHashJoin NodeKind = 4
	// NodeAggregate groups by the GroupBy columns (streaming to a single
	// group when empty) and computes Aggs per group. Output is the group
	// values followed by one column per aggregate, groups in first-seen
	// (input) order. With no GroupBy and no input rows it emits one row:
	// COUNT 0 and Int 0 for every other aggregate.
	NodeAggregate NodeKind = 5
	// NodeSort materializes and stably sorts by Keys.
	NodeSort NodeKind = 6
	// NodeLimit skips Offset rows then passes through at most Count.
	NodeLimit NodeKind = 7
)

// AggFn names an aggregate function.
type AggFn uint8

const (
	// AggCount counts rows; it takes no argument.
	AggCount AggFn = iota
	// AggSum sums its argument: all-Int inputs yield Int, any Float
	// promotes to Float. Zero rows yield Int 0.
	AggSum
	// AggMin is the Compare-minimum of its argument.
	AggMin
	// AggMax is the Compare-maximum of its argument.
	AggMax
	// AggAvg is SUM/COUNT as a Float. Zero rows yield Int 0 (no NULL).
	AggAvg
)

// AggSpec is one aggregate column: the function and, except for COUNT,
// its argument expression over the input row.
type AggSpec struct {
	Fn  AggFn
	Arg *Expr
}

// Count counts input rows.
func Count() AggSpec { return AggSpec{Fn: AggCount} }

// Sum sums arg over the group.
func Sum(arg *Expr) AggSpec { return AggSpec{Fn: AggSum, Arg: arg} }

// Min takes the minimum of arg over the group.
func Min(arg *Expr) AggSpec { return AggSpec{Fn: AggMin, Arg: arg} }

// Max takes the maximum of arg over the group.
func Max(arg *Expr) AggSpec { return AggSpec{Fn: AggMax, Arg: arg} }

// Avg averages arg over the group.
func Avg(arg *Expr) AggSpec { return AggSpec{Fn: AggAvg, Arg: arg} }

// SortKey orders by one column, optionally descending.
type SortKey struct {
	Col  int
	Desc bool
}

// Node is one plan operator. Unary operators use Left as their input;
// HashJoin uses Left and Right. The struct is flat so the binary codec and
// validation stay table-driven.
type Node struct {
	Kind NodeKind

	// Scan
	Table  string
	Schema Schema
	Lo, Hi []byte // optional encoded key range; nil Lo = start, nil Hi = unbounded

	// Filter
	Pred *Expr

	// Project
	Exprs []*Expr

	// HashJoin
	LeftKeys, RightKeys []int

	// Aggregate
	GroupBy []int
	Aggs    []AggSpec

	// Sort
	Keys []SortKey

	// Limit
	Offset, Count uint32

	Left, Right *Node
}

// Plan is a complete query: a single operator tree.
type Plan struct {
	Root *Node
}

// Scan builds a full-table scan decoding rows with schema.
func Scan(table string, schema Schema) *Node {
	return &Node{Kind: NodeScan, Table: table, Schema: schema}
}

// ScanRange builds a key-range scan: lo inclusive (nil = start), hi
// exclusive (nil = unbounded), both in the table's physical key encoding.
func ScanRange(table string, schema Schema, lo, hi []byte) *Node {
	return &Node{Kind: NodeScan, Table: table, Schema: schema, Lo: lo, Hi: hi}
}

// Filter keeps input rows where pred is non-zero.
func Filter(in *Node, pred *Expr) *Node {
	return &Node{Kind: NodeFilter, Pred: pred, Left: in}
}

// Project maps each input row through exprs.
func Project(in *Node, exprs ...*Expr) *Node {
	return &Node{Kind: NodeProject, Exprs: exprs, Left: in}
}

// HashJoin equi-joins left and right on pairwise-equal key columns.
func HashJoin(left, right *Node, leftKeys, rightKeys []int) *Node {
	return &Node{Kind: NodeHashJoin, LeftKeys: leftKeys, RightKeys: rightKeys, Left: left, Right: right}
}

// Aggregate groups in by groupBy (may be empty) and computes aggs.
func Aggregate(in *Node, groupBy []int, aggs ...AggSpec) *Node {
	return &Node{Kind: NodeAggregate, GroupBy: groupBy, Aggs: aggs, Left: in}
}

// OrderBy stably sorts in by keys.
func OrderBy(in *Node, keys ...SortKey) *Node {
	return &Node{Kind: NodeSort, Keys: keys, Left: in}
}

// Limit skips offset rows then emits at most count.
func Limit(in *Node, offset, count uint32) *Node {
	return &Node{Kind: NodeLimit, Offset: offset, Count: count, Left: in}
}

// NewPlan wraps a root operator as a Plan.
func NewPlan(root *Node) *Plan { return &Plan{Root: root} }

// Structural limits enforced by Validate, so a runaway plan builder cannot
// stack-overflow the executor.
const (
	maxPlanNodes = 1024
	maxPlanDepth = 64
	maxExprDepth = 100
)

func planErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", engine.ErrBadQueryPlan, fmt.Sprintf(format, args...))
}

// Arity returns the number of output columns of the node.
func (n *Node) Arity() int {
	switch n.Kind {
	case NodeScan:
		return n.Schema.Cols()
	case NodeProject:
		return len(n.Exprs)
	case NodeHashJoin:
		return n.Left.Arity() + n.Right.Arity()
	case NodeAggregate:
		return len(n.GroupBy) + len(n.Aggs)
	default: // Filter, Sort, Limit pass rows through
		return n.Left.Arity()
	}
}

// Arity returns the number of columns in the plan's result rows. It is
// only meaningful after Validate succeeds.
func (p *Plan) Arity() int {
	if p == nil || p.Root == nil {
		return 0
	}
	return p.Root.Arity()
}

// Validate checks the whole tree: node kinds, child presence, column
// references against child arities, expression well-formedness, and the
// structural limits above. A plan that validates cannot fail structurally
// at execution time (it can still fail on runtime type errors, e.g.
// arithmetic over a string column).
func (p *Plan) Validate() error {
	if p == nil || p.Root == nil {
		return planErr("empty plan")
	}
	nodes := 0
	return p.Root.validate(1, &nodes)
}

func (n *Node) validate(depth int, nodes *int) error {
	if n == nil {
		return planErr("missing operator input")
	}
	if depth > maxPlanDepth {
		return planErr("plan deeper than %d operators", maxPlanDepth)
	}
	*nodes++
	if *nodes > maxPlanNodes {
		return planErr("plan larger than %d operators", maxPlanNodes)
	}
	switch n.Kind {
	case NodeScan:
		if n.Left != nil || n.Right != nil {
			return planErr("scan takes no input")
		}
		if n.Table == "" {
			return planErr("scan of unnamed table")
		}
		return n.Schema.validate()
	case NodeFilter:
		if err := n.Left.validate(depth+1, nodes); err != nil {
			return err
		}
		if n.Pred == nil {
			return planErr("filter without predicate")
		}
		if n.Pred.maxDepth() > maxExprDepth {
			return planErr("expression deeper than %d", maxExprDepth)
		}
		return n.Pred.validate(n.Left.Arity())
	case NodeProject:
		if err := n.Left.validate(depth+1, nodes); err != nil {
			return err
		}
		if len(n.Exprs) == 0 {
			return planErr("projection of zero columns")
		}
		arity := n.Left.Arity()
		for i, e := range n.Exprs {
			if e == nil {
				return planErr("projection column %d is nil", i)
			}
			if e.maxDepth() > maxExprDepth {
				return planErr("expression deeper than %d", maxExprDepth)
			}
			if err := e.validate(arity); err != nil {
				return err
			}
		}
		return nil
	case NodeHashJoin:
		if err := n.Left.validate(depth+1, nodes); err != nil {
			return err
		}
		if err := n.Right.validate(depth+1, nodes); err != nil {
			return err
		}
		if len(n.LeftKeys) == 0 || len(n.LeftKeys) != len(n.RightKeys) {
			return planErr("join needs equal non-empty key column lists (got %d and %d)",
				len(n.LeftKeys), len(n.RightKeys))
		}
		la, ra := n.Left.Arity(), n.Right.Arity()
		for _, c := range n.LeftKeys {
			if c < 0 || c >= la {
				return planErr("join left key column %d out of range (input has %d)", c, la)
			}
		}
		for _, c := range n.RightKeys {
			if c < 0 || c >= ra {
				return planErr("join right key column %d out of range (input has %d)", c, ra)
			}
		}
		return nil
	case NodeAggregate:
		if err := n.Left.validate(depth+1, nodes); err != nil {
			return err
		}
		if len(n.GroupBy) == 0 && len(n.Aggs) == 0 {
			return planErr("aggregate computes nothing")
		}
		arity := n.Left.Arity()
		for _, c := range n.GroupBy {
			if c < 0 || c >= arity {
				return planErr("group-by column %d out of range (input has %d)", c, arity)
			}
		}
		for i, a := range n.Aggs {
			if a.Fn > AggAvg {
				return planErr("bad aggregate function %d", a.Fn)
			}
			if a.Fn == AggCount {
				if a.Arg != nil {
					return planErr("COUNT takes no argument (aggregate %d)", i)
				}
				continue
			}
			if a.Arg == nil {
				return planErr("aggregate %d needs an argument", i)
			}
			if a.Arg.maxDepth() > maxExprDepth {
				return planErr("expression deeper than %d", maxExprDepth)
			}
			if err := a.Arg.validate(arity); err != nil {
				return err
			}
		}
		return nil
	case NodeSort:
		if err := n.Left.validate(depth+1, nodes); err != nil {
			return err
		}
		if len(n.Keys) == 0 {
			return planErr("sort without keys")
		}
		arity := n.Left.Arity()
		for _, k := range n.Keys {
			if k.Col < 0 || k.Col >= arity {
				return planErr("sort column %d out of range (input has %d)", k.Col, arity)
			}
		}
		return nil
	case NodeLimit:
		return n.Left.validate(depth+1, nodes)
	}
	return planErr("bad operator kind %d", n.Kind)
}
