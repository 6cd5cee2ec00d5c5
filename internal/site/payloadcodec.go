package site

import (
	"encoding/binary"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// The chopped-queue payloads ride the wire (gob) and sit in the disk
// driver's queue image, where each type writes itself: the image is
// encoded on every durable hop, so its payloads take no reflection.
// The tags are part of the image format (DESIGN.md §9).
func init() {
	queue.RegisterPayloadCodec(activation{}, queue.FirstPayloadTag, queue.PayloadCodec{
		Append: func(dst []byte, v any) []byte {
			a := v.(activation)
			dst = binary.AppendUvarint(dst, a.Inst)
			dst = queue.AppendString(dst, string(a.Origin))
			dst = binary.AppendVarint(dst, int64(a.TxType))
			dst = binary.AppendVarint(dst, int64(a.Piece))
			return queue.AppendBool(dst, a.Compensate)
		},
		Consume: func(d *queue.Decoder) any {
			return activation{
				Inst:       d.Uvarint(),
				Origin:     simnet.SiteID(d.String()),
				TxType:     d.Int(),
				Piece:      d.Int(),
				Compensate: d.Bool(),
			}
		},
	})
	queue.RegisterPayloadCodec(pieceDone{}, queue.FirstPayloadTag+1, queue.PayloadCodec{
		Append:  func(dst []byte, v any) []byte { return appendPieceDone(dst, v.(pieceDone)) },
		Consume: func(d *queue.Decoder) any { return consumePieceDone(d) },
	})
	queue.RegisterPayloadCodec(doneBatch{}, queue.FirstPayloadTag+2, queue.PayloadCodec{
		Append: func(dst []byte, v any) []byte {
			b := v.(doneBatch)
			dst = binary.AppendUvarint(dst, uint64(len(b.Reports)))
			for _, r := range b.Reports {
				dst = appendPieceDone(dst, r)
			}
			return dst
		},
		Consume: func(d *queue.Decoder) any {
			var b doneBatch
			if n := d.Count(pieceDoneMinBytes); n > 0 {
				b.Reports = make([]pieceDone, n)
				for i := range b.Reports {
					b.Reports[i] = consumePieceDone(d)
				}
			}
			return b
		},
	})
}

// pieceDoneMinBytes is the shortest encoded pieceDone: eight one-byte
// fields.
const pieceDoneMinBytes = 8

func appendPieceDone(dst []byte, r pieceDone) []byte {
	dst = binary.AppendUvarint(dst, r.Inst)
	dst = binary.AppendVarint(dst, int64(r.Piece))
	dst = queue.AppendBool(dst, r.Comp)
	dst = binary.AppendVarint(dst, int64(r.RolledAt))
	dst = binary.AppendUvarint(dst, uint64(len(r.Reads)))
	for _, rec := range r.Reads {
		dst = queue.AppendString(dst, string(rec.Key))
		dst = binary.AppendVarint(dst, int64(rec.Value))
	}
	dst = binary.AppendVarint(dst, int64(r.Imported))
	dst = binary.AppendVarint(dst, int64(r.Exported))
	return queue.AppendCtx(dst, r.Ctx)
}

func consumePieceDone(d *queue.Decoder) pieceDone {
	r := pieceDone{
		Inst:     d.Uvarint(),
		Piece:    d.Int(),
		Comp:     d.Bool(),
		RolledAt: d.Int(),
	}
	if n := d.Count(2); n > 0 { // a read is at least a key length and a value
		r.Reads = make([]txn.ReadRec, n)
		for i := range r.Reads {
			r.Reads[i] = txn.ReadRec{Key: storage.Key(d.String()), Value: metric.Value(d.Varint())}
		}
	}
	r.Imported = metric.Fuzz(d.Varint())
	r.Exported = metric.Fuzz(d.Varint())
	r.Ctx = d.Ctx()
	return r
}
