package queue

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"

	"asynctp/internal/simnet"
	"asynctp/internal/tracectx"
)

// This file gives State its durable form: the disk driver logs one
// encoded image per persist, so the encoder sits on the settle path of
// every durable hop. The layout is hand-rolled — varints and
// length-prefixed strings behind a magic and a version byte (the byte
// table is in DESIGN.md §9) — and a payload is written by its own type
// through a registered PayloadCodec. Only a payload type known through
// RegisterPayloadType alone pays for gob, and only for itself.

// imageMagic opens every encoded State; imageVersion follows it. A
// layout change takes a new version byte, and DecodeState reads exactly
// one version: an image from any other is an error, never a guess.
const (
	imageMagic   = "AQST"
	imageVersion = 1
)

// Payload tags of the image. Tags below FirstPayloadTag belong to the
// queue layer.
const (
	tagNil    = 0 // no payload
	tagString = 1 // a string
	tagGob    = 2 // length-prefixed gob of the payload as an interface value
	// FirstPayloadTag is the lowest tag RegisterPayloadCodec accepts.
	FirstPayloadTag = 16
)

// ErrBadImage reports bytes that are not a version-1 queue image:
// wrong magic, unknown version, a truncated tail, or a count or length
// larger than the bytes that remain.
var ErrBadImage = errors.New("queue: malformed state image")

// PayloadCodec is how one concrete payload type writes itself into the
// image. Append extends dst with v's fields; Consume reads them back in
// the same order (the Decoder latches the first malformed field, so
// Consume needs no error handling of its own).
type PayloadCodec struct {
	Append  func(dst []byte, v any) []byte
	Consume func(d *Decoder) any
}

var (
	codecByType = map[reflect.Type]*registeredCodec{}
	codecByTag  [256]*registeredCodec
)

type registeredCodec struct {
	tag byte
	PayloadCodec
}

// RegisterPayloadType registers a concrete payload type carried in
// Msg.Payload with gob: the TCP transport frames whole simnet.Messages
// with it, and the image falls back to it for a type that has no
// PayloadCodec. Call it from an init function in the package that owns
// the payload type; the encoding and the decoding process must have
// registered the same types.
func RegisterPayloadType(v any) { gob.Register(v) }

// RegisterPayloadCodec registers sample's concrete type like
// RegisterPayloadType and gives it a binary form in the image under
// tag (FirstPayloadTag or above, one per type, the same in every
// process). Call it from an init function, as the table is read
// without a lock afterwards.
func RegisterPayloadCodec(sample any, tag byte, c PayloadCodec) {
	t := reflect.TypeOf(sample)
	if tag < FirstPayloadTag || codecByTag[tag] != nil || codecByType[t] != nil {
		panic(fmt.Sprintf("queue: payload codec for %v: tag %d is reserved or taken, or the type is registered twice", t, tag))
	}
	RegisterPayloadType(sample)
	rc := &registeredCodec{tag: tag, PayloadCodec: c}
	codecByTag[tag] = rc
	codecByType[t] = rc
}

// The queue layer's own wire payloads must round-trip through the
// gob-based transport codec: register them once, here, for every
// process.
func init() {
	RegisterPayloadType(Msg{})
	RegisterPayloadType(BatchFrame{})
	RegisterPayloadType(AckFrame{})
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendCtx appends a trace context: one zero byte when tracing is off
// (the zero Ctx), else a one byte and the five fields.
func AppendCtx(dst []byte, c tracectx.Ctx) []byte {
	if c == (tracectx.Ctx{}) {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, c.Trace)
	dst = binary.AppendUvarint(dst, c.Span)
	dst = AppendString(dst, c.Proc)
	dst = binary.AppendUvarint(dst, c.Clock)
	return binary.AppendVarint(dst, c.SentAt)
}

// Decoder reads the image's primitives from a byte slice. The first
// malformed or truncated field latches ErrBadImage; every later read
// returns a zero value, so a PayloadCodec's Consume reads its fields
// straight through and DecodeState checks once, at the end. Nothing is
// allocated for a count or a length the remaining bytes cannot hold.
type Decoder struct {
	b   []byte
	err error
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadImage, what)
	}
	d.b = nil
}

// readByte reads one byte.
func (d *Decoder) readByte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Bool reads a byte written by AppendBool.
func (d *Decoder) Bool() bool {
	switch d.readByte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool out of range")
	return false
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed (zig-zag) varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a signed varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("int out of range")
		return 0
	}
	return int(v)
}

// Count reads an element count and checks it against the bytes that
// remain, each element taking at least minBytes (≥ 1) of them.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("count exceeds remaining bytes")
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed run without copying it.
func (d *Decoder) bytes() []byte {
	n := d.Count(1)
	run := d.b[:n]
	d.b = d.b[n:]
	return run
}

// String reads a string written by AppendString.
func (d *Decoder) String() string { return string(d.bytes()) }

// Ctx reads a trace context written by AppendCtx.
func (d *Decoder) Ctx() tracectx.Ctx {
	switch d.readByte() {
	case 0:
		return tracectx.Ctx{}
	case 1:
		return tracectx.Ctx{
			Trace:  d.Uvarint(),
			Span:   d.Uvarint(),
			Proc:   d.String(),
			Clock:  d.Uvarint(),
			SentAt: d.Varint(),
		}
	}
	d.fail("trace context flag out of range")
	return tracectx.Ctx{}
}

// appendPayload writes the payload tag and the payload.
func appendPayload(dst []byte, v any) ([]byte, error) {
	switch p := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case string:
		return AppendString(append(dst, tagString), p), nil
	}
	if rc := codecByType[reflect.TypeOf(v)]; rc != nil {
		return rc.Append(append(dst, rc.tag), v), nil
	}
	return appendGobPayload(dst, v)
}

// appendGobPayload is the fallback for a payload type with no codec. It
// is a function of its own so that only its v escapes to the heap.
func appendGobPayload(dst []byte, v any) ([]byte, error) {
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&v); err != nil {
		return nil, fmt.Errorf("queue: encoding %T payload: %w", v, err)
	}
	dst = binary.AppendUvarint(append(dst, tagGob), uint64(blob.Len()))
	return append(dst, blob.Bytes()...), nil
}

func (d *Decoder) payload() any {
	switch tag := d.readByte(); tag {
	case tagNil:
		return nil
	case tagString:
		return d.String()
	case tagGob:
		var v any
		blob := d.bytes()
		if d.err != nil {
			return nil
		}
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
			d.fail("gob payload: " + err.Error())
			return nil
		}
		return v
	default:
		rc := codecByTag[tag]
		if rc == nil {
			d.fail(fmt.Sprintf("unregistered payload tag %d", tag))
			return nil
		}
		return rc.Consume(d)
	}
}

// msgMinBytes is the shortest encoded Msg: six one-byte fields and the
// payload tag.
const msgMinBytes = 7

// appendMsg writes one Msg; a wire frame can carry the same bytes.
func appendMsg(dst []byte, m Msg) ([]byte, error) {
	dst = AppendString(dst, m.ID)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = AppendString(dst, string(m.From))
	dst = AppendString(dst, m.Queue)
	dst = AppendCtx(dst, m.Ctx)
	dst = binary.AppendVarint(dst, m.ArrivedAt)
	return appendPayload(dst, m.Payload)
}

func (d *Decoder) msg() Msg {
	return Msg{
		ID:        d.String(),
		Seq:       d.Uvarint(),
		From:      simnet.SiteID(d.String()),
		Queue:     d.String(),
		Ctx:       d.Ctx(),
		ArrivedAt: d.Varint(),
		Payload:   d.payload(),
	}
}

// sortedKeys returns m's keys in order, so that equal States encode to
// equal bytes.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Encode serializes the state for a durable store. Maps are written in
// key order: the bytes are a function of the State alone.
func (st State) Encode() ([]byte, error) {
	msgs := len(st.Outbox) + len(st.Inflight)
	for _, q := range st.Queues {
		msgs += len(q)
	}
	dst := make([]byte, 0, 64+96*msgs)
	dst = append(dst, imageMagic...)
	dst = append(dst, imageVersion)
	dst = binary.AppendUvarint(dst, st.Version)

	dst = binary.AppendUvarint(dst, uint64(len(st.NextSeq)))
	for _, to := range sortedKeys(st.NextSeq) {
		dst = AppendString(dst, string(to))
		dst = binary.AppendUvarint(dst, st.NextSeq[to])
	}
	var err error
	dst = binary.AppendUvarint(dst, uint64(len(st.Outbox)))
	for _, id := range sortedKeys(st.Outbox) {
		om := st.Outbox[id]
		dst = AppendString(dst, id)
		dst = AppendString(dst, string(om.To))
		if dst, err = appendMsg(dst, om.Msg); err != nil {
			return nil, err
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Queues)))
	for _, name := range sortedKeys(st.Queues) {
		dst = AppendString(dst, name)
		dst = binary.AppendUvarint(dst, uint64(len(st.Queues[name])))
		for _, m := range st.Queues[name] {
			if dst, err = appendMsg(dst, m); err != nil {
				return nil, err
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Inflight)))
	for _, id := range sortedKeys(st.Inflight) {
		dst = AppendString(dst, id)
		if dst, err = appendMsg(dst, st.Inflight[id]); err != nil {
			return nil, err
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Seen)))
	for _, from := range sortedKeys(st.Seen) {
		ss := st.Seen[from]
		dst = AppendString(dst, string(from))
		dst = binary.AppendUvarint(dst, ss.Prefix)
		dst = binary.AppendUvarint(dst, uint64(len(ss.Sparse)))
		for _, seq := range ss.Sparse {
			dst = binary.AppendUvarint(dst, seq)
		}
	}
	return dst, nil
}

// DecodeState parses a blob produced by Encode. A section written with
// no entries decodes to a nil map or slice (Restore treats them as
// empty).
func DecodeState(data []byte) (State, error) {
	if len(data) <= len(imageMagic) || string(data[:len(imageMagic)]) != imageMagic {
		return State{}, fmt.Errorf("%w: no magic", ErrBadImage)
	}
	if v := data[len(imageMagic)]; v != imageVersion {
		return State{}, fmt.Errorf("%w: version %d, this build reads %d", ErrBadImage, v, imageVersion)
	}
	d := &Decoder{b: data[len(imageMagic)+1:]}
	st := State{Version: d.Uvarint()}

	if n := d.Count(2); n > 0 {
		st.NextSeq = make(map[simnet.SiteID]uint64, n)
		for i := 0; i < n; i++ {
			to := simnet.SiteID(d.String())
			st.NextSeq[to] = d.Uvarint()
		}
	}
	if n := d.Count(2 + msgMinBytes); n > 0 {
		st.Outbox = make(map[string]OutboxMsg, n)
		for i := 0; i < n; i++ {
			id, to := d.String(), simnet.SiteID(d.String())
			st.Outbox[id] = OutboxMsg{To: to, Msg: d.msg()}
		}
	}
	if n := d.Count(2); n > 0 {
		st.Queues = make(map[string][]Msg, n)
		for i := 0; i < n; i++ {
			name := d.String()
			var msgs []Msg
			if k := d.Count(msgMinBytes); k > 0 {
				msgs = make([]Msg, k)
				for j := range msgs {
					msgs[j] = d.msg()
				}
			}
			st.Queues[name] = msgs
		}
	}
	if n := d.Count(1 + msgMinBytes); n > 0 {
		st.Inflight = make(map[string]Msg, n)
		for i := 0; i < n; i++ {
			id := d.String()
			st.Inflight[id] = d.msg()
		}
	}
	if n := d.Count(3); n > 0 {
		st.Seen = make(map[simnet.SiteID]SeenState, n)
		for i := 0; i < n; i++ {
			from := simnet.SiteID(d.String())
			ss := SeenState{Prefix: d.Uvarint()}
			if k := d.Count(1); k > 0 {
				ss.Sparse = make([]uint64, k)
				for j := range ss.Sparse {
					ss.Sparse[j] = d.Uvarint()
				}
			}
			st.Seen[from] = ss
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return State{}, d.err
	}
	return st, nil
}

// WithPersist installs the durability barrier, persist being the one
// call that writes the endpoint's image. Receiving: after the messages
// of a group of frames are admitted, the endpoint snapshots its state
// once and calls persist before staging any of the group's
// acknowledgements. Only a successful persist stages acks — on error
// the senders keep the messages in their outboxes and retransmit, and
// the watermark dedup absorbs the redelivery. Without it a group-commit
// fsync slower than the flush of its acks could acknowledge a
// message whose durable queue image never hit disk: kill -9 in that
// window would lose the message at the receiver after the sender forgot
// it. Sending: CommitSend holds new messages until a barrier (Persist,
// or a receiving one) has made an image holding them durable. Without
// that, kill -9 between a frame's send and its image would let the
// restarted sender mint the same sequence numbers for new messages,
// which the receiver's watermark then drops as duplicates.
func WithPersist(persist func(State) error) Option {
	return func(m *Manager) { m.persist = persist }
}

// snapshotLocked is Snapshot's body; callers hold m.mu. Every snapshot
// takes the next version, so versions order images exactly as the
// states they captured were ordered under the mutex.
func (m *Manager) snapshotLocked() State {
	m.version++
	st := State{
		Version:  m.version,
		NextSeq:  make(map[simnet.SiteID]uint64, len(m.nextSeq)),
		Outbox:   make(map[string]OutboxMsg, len(m.outbox)),
		Queues:   make(map[string][]Msg, len(m.queues)),
		Inflight: make(map[string]Msg, len(m.inflight)),
		Seen:     make(map[simnet.SiteID]SeenState, len(m.seen)),
	}
	for to, seq := range m.nextSeq {
		st.NextSeq[to] = seq
	}
	for id, om := range m.outbox {
		st.Outbox[id] = OutboxMsg{Msg: om.msg, To: om.to}
	}
	for q, msgs := range m.queues {
		st.Queues[q] = append([]Msg(nil), msgs...)
	}
	for id, msg := range m.inflight {
		st.Inflight[id] = msg
	}
	for from, ss := range m.seen {
		snap := SeenState{Prefix: ss.prefix}
		for seq := range ss.sparse {
			snap.Sparse = append(snap.Sparse, seq)
		}
		st.Seen[from] = snap
	}
	return st
}
