package queue

import (
	"reflect"
	"testing"
	"time"
)

// TestCompleteCommitsSendsWithAcksAndMarks: a consumer's Complete puts
// its staged send, its mark and its delivery's ack into the endpoint in
// one step, so an image taken before it holds none of them and one
// taken after holds all three; the mark survives the image's bytes and
// a Restore.
func TestCompleteCommitsSendsWithAcksAndMarks(t *testing.T) {
	p := newPair(t)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", "work")
	p.ny.CommitSend(buf)
	d, err := p.la.Dequeue(ctxT(t), "q")
	if err != nil {
		t.Fatal(err)
	}
	before := p.la.Snapshot()
	out := p.la.Buffer()
	out.Enqueue("NY", "r", "result")
	out.Mark("origin/0", 7)
	p.la.Complete(out, []*Delivery{d})
	after := p.la.Snapshot()
	if len(before.Inflight) != 1 || len(before.Outbox) != 0 || before.Marks["origin/0"] != 0 {
		t.Errorf("image before Complete: %d in flight, %d sent, mark %d; want 1, 0, 0",
			len(before.Inflight), len(before.Outbox), before.Marks["origin/0"])
	}
	if len(after.Inflight) != 0 || len(after.Outbox) != 1 || after.Marks["origin/0"] != 7 {
		t.Errorf("image after Complete: %d in flight, %d sent, mark %d; want 0, 1, 7",
			len(after.Inflight), len(after.Outbox), after.Marks["origin/0"])
	}
	if out.Len() != 0 {
		t.Errorf("buffer holds %d messages after Complete", out.Len())
	}
	blob, err := after.Encode()
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(blob)
	if err != nil || !reflect.DeepEqual(st.Marks, after.Marks) || !reflect.DeepEqual(st.NextSeq, after.NextSeq) {
		t.Fatalf("decoded marks %v next %v (err %v), want %v and %v", st.Marks, st.NextSeq, err, after.Marks, after.NextSeq)
	}
	m := NewManager("LA", p.net, 20*time.Millisecond)
	defer m.Close()
	m.Restore(st)
	if got := m.Snapshot().Marks["origin/0"]; got != 7 {
		t.Errorf("restored mark = %d, want 7", got)
	}
}
