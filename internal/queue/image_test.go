package queue

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"asynctp/internal/simnet"
	"asynctp/internal/tracectx"
)

// codecPayload has a registered binary form (statePayload, registered
// with RegisterPayloadType alone, takes the gob fallback).
type codecPayload struct {
	Inst  uint64
	Piece int
	Note  string
}

func init() {
	RegisterPayloadCodec(codecPayload{}, 200, PayloadCodec{
		Append: func(dst []byte, v any) []byte {
			p := v.(codecPayload)
			dst = binary.AppendUvarint(dst, p.Inst)
			dst = binary.AppendVarint(dst, int64(p.Piece))
			return AppendString(dst, p.Note)
		},
		Consume: func(d *Decoder) any {
			return codecPayload{Inst: d.Uvarint(), Piece: d.Int(), Note: d.String()}
		},
	})
}

// randMsg draws a message exercising every field's edge: empty and
// non-empty strings, zero and non-zero trace context and arrival stamp,
// negative numbers, and all four payload encodings.
func randMsg(r *rand.Rand) Msg {
	m := Msg{
		ID:    fmt.Sprintf("LA>NY-%d", r.Intn(1000)),
		Seq:   r.Uint64() >> uint(r.Intn(64)),
		From:  simnet.SiteID([]string{"", "LA", "CHI"}[r.Intn(3)]),
		Queue: []string{"", "pieces", "done"}[r.Intn(3)],
	}
	if r.Intn(2) == 0 {
		m.Ctx = tracectx.Ctx{Trace: r.Uint64(), Span: r.Uint64(), Proc: "p" + fmt.Sprint(r.Intn(9)), Clock: uint64(r.Intn(100)), SentAt: r.Int63() - r.Int63()}
	} else if r.Intn(4) == 0 {
		m.Ctx = tracectx.Ctx{Proc: "untraced"} // invalid, yet not the zero Ctx
	}
	if r.Intn(2) == 0 {
		m.ArrivedAt = r.Int63()
	}
	switch r.Intn(5) {
	case 0: // nil
	case 1:
		m.Payload = fmt.Sprint("s", r.Intn(100))
	case 2:
		m.Payload = ""
	case 3:
		m.Payload = statePayload{Inst: r.Uint64(), Piece: r.Intn(9) - 4}
	case 4:
		m.Payload = codecPayload{Inst: r.Uint64(), Piece: r.Intn(9) - 4, Note: fmt.Sprint(r.Intn(3))}
	}
	return m
}

// randState draws a State; each section is nil, empty or populated.
func randState(r *rand.Rand) State {
	st := State{Version: r.Uint64() >> uint(r.Intn(64))}
	section := func() int { return r.Intn(3) } // 0 nil, 1 empty, 2 populated
	if k := section(); k > 0 {
		st.NextSeq = map[simnet.SiteID]uint64{}
		for i := 0; k == 2 && i < 1+r.Intn(3); i++ {
			st.NextSeq[simnet.SiteID(fmt.Sprint("s", i))] = r.Uint64()
		}
	}
	if k := section(); k > 0 {
		st.Marks = map[string]uint64{}
		for i := 0; k == 2 && i < 1+r.Intn(3); i++ {
			st.Marks[fmt.Sprint("__origin/", i)] = r.Uint64() >> uint(r.Intn(64))
		}
	}
	if k := section(); k > 0 {
		st.Outbox = map[string]OutboxMsg{}
		for i := 0; k == 2 && i < 1+r.Intn(4); i++ {
			m := randMsg(r)
			st.Outbox[fmt.Sprint(m.ID, "/", i)] = OutboxMsg{Msg: m, To: simnet.SiteID(fmt.Sprint("s", r.Intn(3)))}
		}
	}
	if k := section(); k > 0 {
		st.Queues = map[string][]Msg{}
		for i := 0; k == 2 && i < 1+r.Intn(3); i++ {
			var q []Msg
			for j := r.Intn(4); j > 0; j-- {
				q = append(q, randMsg(r))
			}
			st.Queues[fmt.Sprint("q", i)] = q
		}
	}
	if k := section(); k > 0 {
		st.Inflight = map[string]Msg{}
		for i := 0; k == 2 && i < 1+r.Intn(3); i++ {
			st.Inflight[fmt.Sprint("f", i)] = randMsg(r)
		}
	}
	if k := section(); k > 0 {
		st.Seen = map[simnet.SiteID]SeenState{}
		for i := 0; k == 2 && i < 1+r.Intn(3); i++ {
			ss := SeenState{Prefix: uint64(r.Intn(50))}
			for j := r.Intn(4); j > 0; j-- {
				ss.Sparse = append(ss.Sparse, ss.Prefix+2+uint64(r.Intn(1000)))
			}
			st.Seen[simnet.SiteID(fmt.Sprint("s", i))] = ss
		}
	}
	return st
}

// normalized maps every empty map and slice to nil: the image does not
// tell them apart, and neither does Restore.
func normalized(st State) State {
	if len(st.NextSeq) == 0 {
		st.NextSeq = nil
	}
	if len(st.Marks) == 0 {
		st.Marks = nil
	}
	if len(st.Outbox) == 0 {
		st.Outbox = nil
	}
	if len(st.Inflight) == 0 {
		st.Inflight = nil
	}
	if len(st.Queues) == 0 {
		st.Queues = nil
	} else {
		q := make(map[string][]Msg, len(st.Queues))
		for name, msgs := range st.Queues {
			if len(msgs) == 0 {
				msgs = nil
			}
			q[name] = msgs
		}
		st.Queues = q
	}
	if len(st.Seen) == 0 {
		st.Seen = nil
	} else {
		seen := make(map[simnet.SiteID]SeenState, len(st.Seen))
		for from, ss := range st.Seen {
			if len(ss.Sparse) == 0 {
				ss.Sparse = nil
			}
			seen[from] = ss
		}
		st.Seen = seen
	}
	return st
}

// elements counts what a decoded State holds; each costs at least one
// byte of image, which bounds what DecodeState can allocate.
func elements(st State) int {
	n := len(st.NextSeq) + len(st.Marks) + len(st.Outbox) + len(st.Queues) + len(st.Inflight) + len(st.Seen)
	for _, q := range st.Queues {
		n += len(q)
	}
	for _, ss := range st.Seen {
		n += len(ss.Sparse)
	}
	return n
}

func TestImageRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		st := randState(r)
		blob, err := st.Encode()
		if err != nil {
			t.Fatalf("state %d: encode: %v", i, err)
		}
		got, err := DecodeState(blob)
		if err != nil {
			t.Fatalf("state %d: decode: %v", i, err)
		}
		if want := normalized(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("state %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
		again, err := got.Encode()
		if err != nil || string(again) != string(blob) {
			t.Fatalf("state %d: re-encoding the decoded image changed its bytes (err %v)", i, err)
		}
	}
}

// goldenState touches every field of the layout except the gob
// fallback, whose bytes belong to encoding/gob.
func goldenState() State {
	ctx := tracectx.Ctx{Trace: 7, Span: 0x2a0003, Proc: "NY", Clock: 9, SentAt: -5}
	return State{
		Version: 300,
		NextSeq: map[simnet.SiteID]uint64{"LA": 7, "CHI": 2},
		Marks:   map[string]uint64{"__origin/0": 5},
		Outbox: map[string]OutboxMsg{
			"NY>LA-7": {To: "LA", Msg: Msg{ID: "NY>LA-7", Seq: 7, From: "NY", Queue: "pieces", Ctx: ctx,
				Payload: codecPayload{Inst: 3, Piece: -1, Note: "n"}}},
		},
		Queues: map[string][]Msg{
			"done":   nil,
			"pieces": {{ID: "LA>NY-4", Seq: 4, From: "LA", Queue: "pieces", ArrivedAt: 1000, Payload: "ack"}},
		},
		Inflight: map[string]Msg{"CHI>NY-1": {ID: "CHI>NY-1", Seq: 1, From: "CHI", Queue: "done"}},
		Seen: map[simnet.SiteID]SeenState{
			"LA":  {Prefix: 4, Sparse: []uint64{7, 200}},
			"CHI": {Prefix: 1},
		},
	}
}

// goldenImage is version 2 of the layout, byte for byte (DESIGN.md §9).
// A change that moves these bytes needs a new version byte.
const goldenImage = "" +
	"41515354" + "02" + // magic "AQST", version 2
	"ac02" + // State.Version 300
	"02" + "03434849" + "02" + "024c41" + "07" + // NextSeq: CHI→2, LA→7
	"01" + "0a5f5f6f726967696e2f30" + "05" + // Marks: "__origin/0"→5
	"01" + // Outbox: one entry
	"074e593e4c412d37" + "024c41" + // key "NY>LA-7", To "LA"
	"074e593e4c412d37" + "07" + "024e59" + "06706965636573" + // Msg ID, Seq, From, Queue
	"01" + "07" + "8380a801" + "024e59" + "09" + "09" + // Ctx on: Trace, Span, Proc, Clock, SentAt -5
	"00" + // ArrivedAt 0
	"c8" + "03" + "01" + "016e" + // payload tag 200: Inst 3, Piece -1, Note "n"
	"02" + // Queues: two
	"04646f6e65" + "00" + // "done": empty
	"06706965636573" + "01" + // "pieces": one message
	"074c413e4e592d34" + "04" + "024c41" + "06706965636573" +
	"00" + "d00f" + // Ctx off; ArrivedAt 1000
	"01" + "0361636b" + // payload tag 1 (string) "ack"
	"01" + // Inflight: one entry
	"084348493e4e592d31" +
	"084348493e4e592d31" + "01" + "03434849" + "04646f6e65" + "00" + "00" +
	"00" + // payload tag 0: nil
	"02" + // Seen: two
	"03434849" + "01" + "00" + // CHI: prefix 1, no sparse entries
	"024c41" + "04" + "02" + "07" + "c801" // LA: prefix 4, sparse 7 and 200

func TestImageGoldenBytes(t *testing.T) {
	blob, err := goldenState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != goldenImage {
		t.Fatalf("version-2 image changed:\n got %s\nwant %s", got, goldenImage)
	}
	want, err := hex.DecodeString(goldenImage)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, normalized(goldenState())) {
		t.Errorf("golden image decodes to %+v", st)
	}
}

// nilTagFromEnd locates the golden image's nil payload tag: it sits just
// before the 15-byte Seen section.
const nilTagFromEnd = 16

func TestImageDecodeRejects(t *testing.T) {
	good, err := goldenState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"empty":           nil,
		"magic only":      good[:4],
		"wrong magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"unknown version": mutate(func(b []byte) []byte { b[4] = imageVersion + 1; return b }),
		"trailing byte":   append(append([]byte(nil), good...), 0),
		"unknown tag":     mutate(func(b []byte) []byte { b[len(b)-nilTagFromEnd] = 99; return b }),
		// A count of 2^40 entries in front of a few bytes.
		"huge count": append(append([]byte(nil), good[:5]...), 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 1),
	}
	for i := 5; i < len(good); i++ {
		cases[fmt.Sprint("truncated at ", i)] = good[:i]
	}
	for name, blob := range cases {
		if _, err := DecodeState(blob); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: err = %v, want ErrBadImage", name, err)
		}
	}
	if good[len(good)-nilTagFromEnd] != tagNil || good[len(good)-nilTagFromEnd+1] != 2 {
		t.Fatal("the unknown-tag case no longer overwrites the nil payload's tag")
	}
}

// TestImageDecodeBoundsAllocation: counts are checked against the bytes
// that remain before anything is sized by them.
func TestImageDecodeBoundsAllocation(t *testing.T) {
	hdr := []byte(imageMagic + "\x02\x00")
	huge := binary.AppendUvarint(nil, 1<<40)
	// Every section in turn claims 2^40 entries over a 64-byte tail.
	for section := 0; section < 6; section++ {
		blob := append([]byte(nil), hdr...)
		for i := 0; i < section; i++ {
			blob = append(blob, 0)
		}
		blob = append(blob, huge...)
		blob = append(blob, make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeState(blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadImage) {
			t.Errorf("section %d: err = %v, want ErrBadImage", section, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("section %d: decoding %d bytes allocated %d", section, len(blob), grew)
		}
	}
}

func FuzzStateDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		blob, err := randState(r).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	golden, _ := hex.DecodeString(goldenImage)
	f.Add(golden)
	f.Add([]byte(imageMagic + "\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("error outside ErrBadImage: %v", err)
			}
			return
		}
		if n := elements(st); n > len(data) {
			t.Fatalf("%d bytes decoded to %d elements", len(data), n)
		}
		blob, err := st.Encode()
		if err != nil {
			t.Fatalf("decoded image does not re-encode: %v", err)
		}
		again, err := DecodeState(blob)
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("re-encoded image decodes differently (err %v)", err)
		}
	})
}

// image64 is a 64-message image: a busy endpoint's outbox, queues and
// in-flight set, with the registered-codec payload the site layer's
// types use.
func image64() State {
	st := State{
		Version:  1 << 20,
		NextSeq:  map[simnet.SiteID]uint64{"LA": 4000, "CHI": 4000},
		Outbox:   map[string]OutboxMsg{},
		Queues:   map[string][]Msg{},
		Inflight: map[string]Msg{},
		Seen:     map[simnet.SiteID]SeenState{"LA": {Prefix: 3990, Sparse: []uint64{3995, 3997}}, "CHI": {Prefix: 4000}},
	}
	for i := 0; i < 64; i++ {
		m := Msg{
			ID: fmt.Sprintf("NY>LA-%d", 4000+i), Seq: uint64(4000 + i), From: "NY", Queue: "pieces",
			ArrivedAt: 1_700_000_000_000_000_000 + int64(i),
			Payload:   codecPayload{Inst: uint64(90000 + i), Piece: 1, Note: "NY"},
		}
		switch i % 4 {
		case 0:
			st.Outbox[m.ID] = OutboxMsg{Msg: m, To: "LA"}
		case 1:
			st.Inflight[m.ID] = m
		default:
			st.Queues[m.Queue] = append(st.Queues[m.Queue], m)
		}
	}
	return st
}

var benchSink int

func BenchmarkStateEncode(b *testing.B) {
	st := image64()
	blob, err := st.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, _ := st.Encode()
		benchSink += len(blob)
	}
}

func BenchmarkStateDecode(b *testing.B) {
	blob, err := image64().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := DecodeState(blob)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(st.Outbox)
	}
}
