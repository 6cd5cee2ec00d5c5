// Package chop implements transaction chopping: Shasha et al.'s
// SR-chopping and this paper's ESR-chopping, together with the chopping
// graph analysis (SC-cycles, C-cycles, restricted pieces, edge weights)
// and the ε-spec distribution policies of Section 2.2.
//
// A chopping partitions each transaction program's operation list into
// contiguous pieces. Each piece runs as an individual transaction; the
// first piece p1 must commit before the others, and rollback-safety
// requires every rollback statement to live in p1 so that once p1
// commits, every other piece can be resubmitted until it commits.
package chop

import (
	"errors"
	"fmt"
	"sort"

	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Chopped is one transaction program with a chosen partition.
type Chopped struct {
	// Original is the unchopped program.
	Original *txn.Program
	// Cuts are the piece boundaries: piece i spans ops[cuts[i]:cuts[i+1])
	// with implicit cuts 0 and len(Ops). Cuts are strictly increasing and
	// within (0, len(Ops)).
	Cuts []int
}

// Whole returns p unchopped (a single piece).
func Whole(p *txn.Program) *Chopped {
	return &Chopped{Original: p}
}

// Finest returns the finest rollback-safe chopping of p: every operation
// its own piece, except that ops up to the last rollback statement stay in
// the first piece.
func Finest(p *txn.Program) *Chopped {
	first := p.LastRollbackIndex() + 1 // ops [0, first) belong to p1
	if first == 0 {
		first = 1
	}
	var cuts []int
	for i := first; i < len(p.Ops); i++ {
		cuts = append(cuts, i)
	}
	return &Chopped{Original: p, Cuts: cuts}
}

// FromCuts builds a chopping with explicit boundaries.
func FromCuts(p *txn.Program, cuts []int) (*Chopped, error) {
	c := &Chopped{Original: p, Cuts: append([]int(nil), cuts...)}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// FromCutsCompensable builds a chopping with explicit boundaries WITHOUT
// the rollback-safety requirement: rollback statements may live in later
// pieces. Executing such a chopping is only sound with a compensation
// mechanism that can undo committed predecessor pieces (see the site
// package's AllowCompensation); boundary sanity is still checked.
func FromCutsCompensable(p *txn.Program, cuts []int) (*Chopped, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Chopped{Original: p, Cuts: append([]int(nil), cuts...)}
	n := len(p.Ops)
	prev := 0
	for i, cut := range c.Cuts {
		if cut <= prev || cut >= n {
			return nil, fmt.Errorf("chop: %q cut %d = %d out of order (prev %d, n %d)",
				p.Name, i, cut, prev, n)
		}
		prev = cut
	}
	return c, nil
}

// Validate checks boundary sanity and rollback-safety.
func (c *Chopped) Validate() error {
	if c.Original == nil {
		return errors.New("chop: nil program")
	}
	if err := c.Original.Validate(); err != nil {
		return err
	}
	n := len(c.Original.Ops)
	prev := 0
	for i, cut := range c.Cuts {
		if cut <= prev || cut >= n {
			return fmt.Errorf("chop: %q cut %d = %d out of order (prev %d, n %d)",
				c.Original.Name, i, cut, prev, n)
		}
		prev = cut
	}
	if last := c.Original.LastRollbackIndex(); last >= 0 && len(c.Cuts) > 0 && c.Cuts[0] <= last {
		return fmt.Errorf("chop: %q not rollback-safe: rollback at op %d but first cut at %d",
			c.Original.Name, last, c.Cuts[0])
	}
	return nil
}

// NumPieces returns the number of pieces.
func (c *Chopped) NumPieces() int { return len(c.Cuts) + 1 }

// PieceOps returns the ops of piece i.
func (c *Chopped) PieceOps(i int) []txn.Op {
	start, end := c.pieceSpan(i)
	return c.Original.Ops[start:end]
}

// DependencyParents returns the parent of each piece in the dependency
// graph DG(CHOP(t)) derived from the program text: piece q's parent is
// the latest earlier sibling that conflicts with q, or p1 when none
// does. p1 has parent -1. The result is a tree rooted at p1, as Figure 2
// assumes.
func (c *Chopped) DependencyParents() []int {
	n := c.NumPieces()
	parents := make([]int, n)
	parents[0] = -1
	for q := 1; q < n; q++ {
		parent := 0
		qOps := c.PieceOps(q)
		for p := q - 1; p >= 1; p-- {
			if opsListsConflict(c.PieceOps(p), qOps) {
				parent = p
				break
			}
		}
		parents[q] = parent
	}
	return parents
}

// DependencyChildren inverts DependencyParents: the children of each
// piece of the dependency tree, in piece order.
func (c *Chopped) DependencyChildren() [][]int {
	parents := c.DependencyParents()
	kids := make([][]int, len(parents))
	for q, parent := range parents {
		if parent >= 0 {
			kids[parent] = append(kids[parent], q)
		}
	}
	return kids
}

// pieceSpan returns [start, end) op indices of piece i.
func (c *Chopped) pieceSpan(i int) (start, end int) {
	start = 0
	if i > 0 {
		start = c.Cuts[i-1]
	}
	end = len(c.Original.Ops)
	if i < len(c.Cuts) {
		end = c.Cuts[i]
	}
	return start, end
}

// merge coalesces pieces i..j (inclusive) into one and returns the
// resulting chopping. Pieces between i and j are swallowed to keep the
// partition contiguous.
func (c *Chopped) merge(i, j int) *Chopped {
	if i > j {
		i, j = j, i
	}
	var cuts []int
	for idx, cut := range c.Cuts {
		// Cut idx separates piece idx from piece idx+1; drop cuts inside
		// the merged range [i, j).
		if idx >= i && idx < j {
			continue
		}
		cuts = append(cuts, cut)
	}
	return &Chopped{Original: c.Original, Cuts: cuts}
}

// Piece is one materialized piece of a chopping in a Set.
type Piece struct {
	// Txn is the index of the original transaction in the Set.
	Txn int
	// Index is the position within CHOP(t): 0 is the first piece p1.
	Index int
	// Program is the piece as a runnable transaction program (ops are the
	// original's sub-slice; name is "orig/p<i>"). Its ε-spec is assigned
	// by a distribution policy, not here.
	Program *txn.Program
	// UpdatePiece reports whether the piece belongs to an update ET. Per
	// the paper a piece of an update ET is an update piece even when its
	// own ops are all reads.
	UpdatePiece bool
}

// Set is a chopping of a whole transaction set CHOP(T): the unit the
// chopping graph and the correctness conditions are defined over.
type Set struct {
	chopped []*Chopped
	pieces  []Piece
	// firstVertex[t] is the vertex index of t's first piece; pieces of t
	// occupy a contiguous vertex range.
	firstVertex []int
}

// NewSet validates the choppings and materializes pieces.
func NewSet(chopped ...*Chopped) (*Set, error) {
	if len(chopped) == 0 {
		return nil, errors.New("chop: empty transaction set")
	}
	names := make(map[string]bool, len(chopped))
	s := &Set{chopped: chopped}
	for ti, c := range chopped {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("chop: transaction %d: %w", ti, err)
		}
		if names[c.Original.Name] {
			return nil, fmt.Errorf("chop: duplicate program name %q", c.Original.Name)
		}
		names[c.Original.Name] = true
		s.firstVertex = append(s.firstVertex, len(s.pieces))
		isUpdate := c.Original.Class() == txn.Update
		for pi := 0; pi < c.NumPieces(); pi++ {
			name := c.Original.Name
			if c.NumPieces() > 1 {
				name = fmt.Sprintf("%s/p%d", c.Original.Name, pi+1)
			}
			prog := &txn.Program{Name: name, Ops: c.PieceOps(pi), Spec: c.Original.Spec}
			s.pieces = append(s.pieces, Piece{
				Txn:         ti,
				Index:       pi,
				Program:     prog,
				UpdatePiece: isUpdate,
			})
		}
	}
	return s, nil
}

// MustSet is NewSet that panics on error; for fixed workloads and tests.
func MustSet(chopped ...*Chopped) *Set {
	s, err := NewSet(chopped...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumTxns returns the number of original transactions.
func (s *Set) NumTxns() int { return len(s.chopped) }

// NumPieces returns the total number of pieces (chopping-graph vertices).
func (s *Set) NumPieces() int { return len(s.pieces) }

// Pieces returns all pieces in vertex order. The slice is shared; callers
// must not mutate it.
func (s *Set) Pieces() []Piece { return s.pieces }

// Piece returns the piece at vertex v.
func (s *Set) Piece(v int) Piece { return s.pieces[v] }

// Vertex returns the vertex index of piece pi of transaction ti.
func (s *Set) Vertex(ti, pi int) int { return s.firstVertex[ti] + pi }

// TxnPieces returns the vertex indices of transaction ti's pieces.
func (s *Set) TxnPieces(ti int) []int {
	out := make([]int, s.chopped[ti].NumPieces())
	for i := range out {
		out[i] = s.firstVertex[ti] + i
	}
	return out
}

// Original returns original transaction ti's program.
func (s *Set) Original(ti int) *txn.Program { return s.chopped[ti].Original }

// Chopping returns the chopping of transaction ti.
func (s *Set) Chopping(ti int) *Chopped { return s.chopped[ti] }

// ReplaceChopping returns a new Set with transaction ti rechopped.
func (s *Set) ReplaceChopping(ti int, c *Chopped) (*Set, error) {
	next := make([]*Chopped, len(s.chopped))
	copy(next, s.chopped)
	next[ti] = c
	return NewSet(next...)
}

// opsListsConflict reports whether any op pair across the lists conflicts.
func opsListsConflict(a, b []txn.Op) bool {
	for _, x := range a {
		for _, y := range b {
			if txn.OpsConflict(x, y) {
				return true
			}
		}
	}
	return false
}

// pieceWriteBound returns the total declared bound of writes to key in
// ops (∞ if any write to key is unbounded, 0 if none).
func pieceWriteBound(ops []txn.Op, key storage.Key) metric.Limit {
	total := metric.Zero
	for _, op := range ops {
		if op.Kind == txn.OpWrite && op.Key == key {
			total = total.AddLimit(op.Bound)
		}
	}
	return total
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[storage.Key]V) []storage.Key {
	keys := make([]storage.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
