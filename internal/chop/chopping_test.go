package chop

import (
	"testing"

	"asynctp/internal/metric"
	"asynctp/internal/txn"
)

func transferProg(name string) *txn.Program {
	return txn.MustProgram(name, txn.AddOp("X", -100), txn.AddOp("Y", 100))
}

func TestWholeSinglePiece(t *testing.T) {
	c := Whole(transferProg("t1"))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumPieces() != 1 || len(c.PieceOps(0)) != 2 {
		t.Errorf("Whole: %d pieces, %d ops", c.NumPieces(), len(c.PieceOps(0)))
	}
}

func TestFinestOnePiecePerOp(t *testing.T) {
	c := Finest(transferProg("t1"))
	if c.NumPieces() != 2 {
		t.Fatalf("Finest pieces = %d, want 2", c.NumPieces())
	}
	if len(c.PieceOps(0)) != 1 || len(c.PieceOps(1)) != 1 {
		t.Error("Finest pieces not singletons")
	}
}

func TestFinestRespectsRollbackSafety(t *testing.T) {
	p := txn.MustProgram("w",
		txn.ReadOp("A"),
		txn.WithAbortIf(txn.AddOp("X", -100), func(v metric.Value) bool { return v < 100 }),
		txn.AddOp("Y", 100),
		txn.AddOp("Z", 1),
	)
	c := Finest(p)
	// Rollback at op 1: ops 0-1 must stay in p1.
	if c.NumPieces() != 3 {
		t.Fatalf("pieces = %d, want 3", c.NumPieces())
	}
	if len(c.PieceOps(0)) != 2 {
		t.Errorf("p1 has %d ops, want 2 (through last rollback)", len(c.PieceOps(0)))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCutsValidation(t *testing.T) {
	p := transferProg("t1")
	if _, err := FromCuts(p, []int{1}); err != nil {
		t.Errorf("valid cuts rejected: %v", err)
	}
	for _, cuts := range [][]int{{0}, {2}, {1, 1}, {-1}} {
		if _, err := FromCuts(p, cuts); err == nil {
			t.Errorf("cuts %v accepted", cuts)
		}
	}
	// Rollback-unsafe cut.
	rb := txn.MustProgram("w",
		txn.WithAbortIf(txn.AddOp("X", -1), func(metric.Value) bool { return false }),
		txn.AddOp("Y", 1))
	if _, err := FromCuts(rb, []int{1}); err != nil {
		t.Errorf("cut after rollback rejected: %v", err)
	}
	rb2 := txn.MustProgram("w",
		txn.AddOp("X", -1),
		txn.WithAbortIf(txn.AddOp("Y", 1), func(metric.Value) bool { return false }))
	if _, err := FromCuts(rb2, []int{1}); err == nil {
		t.Error("cut before rollback accepted")
	}
}

func TestMergeKeepsContiguity(t *testing.T) {
	p := txn.MustProgram("t",
		txn.AddOp("A", 1), txn.AddOp("B", 1), txn.AddOp("C", 1), txn.AddOp("D", 1))
	c := Finest(p) // 4 pieces, cuts [1 2 3]
	m := c.merge(1, 2)
	if m.NumPieces() != 3 {
		t.Fatalf("pieces after merge = %d, want 3", m.NumPieces())
	}
	if len(m.PieceOps(1)) != 2 {
		t.Errorf("merged piece ops = %d, want 2", len(m.PieceOps(1)))
	}
	// Merging across a gap swallows the middle.
	m2 := c.merge(0, 3)
	if m2.NumPieces() != 1 {
		t.Errorf("full merge pieces = %d, want 1", m2.NumPieces())
	}
	// Reversed order behaves the same.
	m3 := c.merge(2, 1)
	if m3.NumPieces() != 3 {
		t.Errorf("reversed merge pieces = %d, want 3", m3.NumPieces())
	}
}

func TestNewSetMaterializesPieces(t *testing.T) {
	t1, err := FromCuts(transferProg("xfer"), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	audit := Whole(txn.MustProgram("audit", txn.ReadOp("X"), txn.ReadOp("Y")))
	s, err := NewSet(t1, audit)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTxns() != 2 || s.NumPieces() != 3 {
		t.Fatalf("txns=%d pieces=%d", s.NumTxns(), s.NumPieces())
	}
	p := s.Piece(0)
	if p.Program.Name != "xfer/p1" || !p.UpdatePiece || p.Txn != 0 || p.Index != 0 {
		t.Errorf("piece 0 = %+v", p)
	}
	if s.Piece(2).Program.Name != "audit" {
		t.Errorf("unchopped piece name = %q", s.Piece(2).Program.Name)
	}
	if s.Piece(2).UpdatePiece {
		t.Error("audit marked update piece")
	}
	if got := s.Vertex(0, 1); got != 1 {
		t.Errorf("Vertex(0,1) = %d", got)
	}
	if vs := s.TxnPieces(0); len(vs) != 2 || vs[0] != 0 || vs[1] != 1 {
		t.Errorf("TxnPieces(0) = %v", vs)
	}
}

func TestNewSetRejectsBadInput(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Error("empty set accepted")
	}
	a := Whole(transferProg("same"))
	b := Whole(txn.MustProgram("same", txn.ReadOp("Z")))
	if _, err := NewSet(a, b); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewSet(&Chopped{}); err == nil {
		t.Error("nil program accepted")
	}
}

func TestUpdatePieceOfUpdateETEvenIfReadOnly(t *testing.T) {
	// A read-only piece of an update ET is still an update piece.
	p := txn.MustProgram("u", txn.ReadOp("A"), txn.AddOp("B", 1))
	c, err := FromCuts(p, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	s := MustSet(c)
	if !s.Piece(0).UpdatePiece {
		t.Error("read-only piece of update ET not marked update")
	}
	if s.Piece(0).Program.Class() != txn.Query {
		t.Error("piece program class should still derive from its own ops")
	}
}

func TestDependencyParentsChainAndTree(t *testing.T) {
	// Ops: W[A], W[A], W[B] — piece 2 (W[A]) depends on piece 1 (W[A]);
	// piece 3 (W[B]) conflicts with no earlier sibling, parent = p1.
	p := txn.MustProgram("t", txn.AddOp("A", 1), txn.AddOp("A", 2), txn.AddOp("B", 3))
	s := MustSet(Finest(p))
	parents := s.Chopping(0).DependencyParents()
	want := []int{-1, 0, 0}
	if len(parents) != 3 || parents[0] != want[0] || parents[1] != want[1] || parents[2] != want[2] {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	// A real chain: W[A], R[A]+W[B], R[B]+W[C].
	q := txn.MustProgram("q",
		txn.AddOp("A", 1),
		txn.TransformOp("B", func(v metric.Value) metric.Value { return v }, metric.LimitOf(1)),
		txn.ReadOp("B"),
	)
	s2 := MustSet(Finest(q))
	parents2 := s2.Chopping(0).DependencyParents()
	if parents2[2] != 1 {
		t.Errorf("chain parents = %v, want piece 2 under piece 1", parents2)
	}
}

func TestReplaceChopping(t *testing.T) {
	s := MustSet(Finest(transferProg("t1")), Whole(transferProg("t2")))
	s2, err := s.ReplaceChopping(0, Whole(transferProg("t1")))
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumPieces() != 2 {
		t.Errorf("pieces after replace = %d, want 2", s2.NumPieces())
	}
	if s.NumPieces() != 3 {
		t.Error("ReplaceChopping mutated the original set")
	}
}
