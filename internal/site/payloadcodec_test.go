package site

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/tracectx"
	"asynctp/internal/txn"
)

func randPieceDone(r *rand.Rand) pieceDone {
	d := pieceDone{
		Inst:     r.Uint64() >> uint(r.Intn(64)),
		Piece:    r.Intn(7) - 3,
		Comp:     r.Intn(2) == 0,
		RolledAt: r.Intn(5) - 2,
		Imported: metric.Fuzz(r.Int63() - r.Int63()),
		Exported: metric.Fuzz(r.Intn(100)),
	}
	for i := r.Intn(4); i > 0; i-- { // zero draws leave Reads nil
		d.Reads = append(d.Reads, txn.ReadRec{Key: storage.Key([]string{"", "ny:A", "la:B"}[r.Intn(3)]), Value: metric.Value(r.Int63() - r.Int63())})
	}
	if r.Intn(2) == 0 {
		d.Ctx = tracectx.Ctx{Trace: d.Inst | 1, Span: r.Uint64(), Proc: "LA", Clock: uint64(r.Intn(50)), SentAt: r.Int63()}
	}
	return d
}

func randPayload(r *rand.Rand) any {
	switch r.Intn(3) {
	case 0:
		return activation{Inst: r.Uint64() >> uint(r.Intn(64)), Origin: simnet.SiteID([]string{"", "NY", "CHI"}[r.Intn(3)]),
			TxType: r.Intn(64), Piece: r.Intn(7) - 3, Compensate: r.Intn(2) == 0}
	case 1:
		return randPieceDone(r)
	default:
		var b doneBatch
		for i := r.Intn(4); i > 0; i-- {
			b.Reports = append(b.Reports, randPieceDone(r))
		}
		return b
	}
}

// imageOf wraps payloads into a one-queue image.
func imageOf(payloads ...any) queue.State {
	st := queue.State{Queues: map[string][]queue.Msg{}}
	for _, p := range payloads {
		st.Queues[pieceQueue] = append(st.Queues[pieceQueue], queue.Msg{Payload: p})
	}
	return st
}

// TestPayloadsRoundTripThroughImage: every payload this package puts on
// a queue comes back from the durable image unchanged.
func TestPayloadsRoundTripThroughImage(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		want := randPayload(r)
		blob, err := imageOf(want).Encode()
		if err != nil {
			t.Fatal(err)
		}
		st, err := queue.DecodeState(blob)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got := st.Queues[pieceQueue][0].Payload; !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip\n got %#v\nwant %#v", got, want)
		}
	}
}

// goldenPayloads pins the three payload layouts and their tags (version
// 2 of the image, DESIGN.md §9): the bytes after the queue header are
// three messages, each six empty Msg fields and then the payload.
const goldenPayloads = "4151535402" + "00" + "00" + "00" + "00" + // header; Version, NextSeq, Marks, Outbox empty
	"01" + "06706965636573" + "03" + // one queue, "pieces", three messages
	"000000000000" + "10" + "07" + "024e59" + "04" + "03" + "01" + // activation: Inst 7, Origin "NY", TxType 2, Piece -2, Compensate
	"000000000000" + "11" + "09" + "02" + "00" + "05" + // pieceDone: Inst 9, Piece 1, not Comp, RolledAt -3
	"01" + "046e793a41" + "c701" + "06" + "08" + // one read ny:A=-100; Imported 3, Exported 4
	"01" + "09" + "05" + "024c41" + "02" + "14" + // Ctx on: Trace 9, Span 5, Proc "LA", Clock 2, SentAt 10
	"000000000000" + "12" + "01" + // doneBatch of one report
	"08" + "00" + "01" + "00" + "00" + "00" + "00" + "00" + // Inst 8, Piece 0, Comp, no reads, Ctx off
	"00" + "00" // Inflight, Seen empty

func TestPayloadGoldenBytes(t *testing.T) {
	st := imageOf(
		activation{Inst: 7, Origin: "NY", TxType: 2, Piece: -2, Compensate: true},
		pieceDone{Inst: 9, Piece: 1, RolledAt: -3, Reads: []txn.ReadRec{{Key: "ny:A", Value: -100}}, Imported: 3, Exported: 4,
			Ctx: tracectx.Ctx{Trace: 9, Span: 5, Proc: "LA", Clock: 2, SentAt: 10}},
		doneBatch{Reports: []pieceDone{{Inst: 8, Comp: true}}},
	)
	blob, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != goldenPayloads {
		t.Fatalf("payload layout changed:\n got %s\nwant %s", got, goldenPayloads)
	}
	// A report count the remaining bytes cannot hold is refused.
	bad, _ := hex.DecodeString("4151535402" + "00000000" + "01" + "06706965636573" + "01" + "000000000000" + "12" + "ff7f" + "0000")
	if _, err := queue.DecodeState(bad); !errors.Is(err, queue.ErrBadImage) {
		t.Errorf("oversized report count: err = %v, want ErrBadImage", err)
	}
}
