package rdc

import (
	"context"
	"fmt"
	"testing"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// BenchmarkValidateDeepWindow measures validation cost against a deep
// validation window: a parked reader pins `depth` committed writers in
// the window, then each iteration validates a one-read transaction on
// an uncontended key. With a linear window scan this is O(depth) per
// validation; with the store's per-key versions it is O(readSet).
// Repair keeps no window to pin (TestRepairKeepsNoWindow), so only the
// policies that price absorptions are measured.
func BenchmarkValidateDeepWindow(b *testing.B) {
	for _, pc := range policies {
		if pc.policy == Repair {
			continue
		}
		for _, depth := range []int{64, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/window=%d", pc.name, depth), func(b *testing.B) {
				e := NewEngine(storage.NewFrom(map[storage.Key]metric.Value{"probe": 1}), nil, pc.policy)

				// Park a transaction whose start seq predates every writer so
				// end()'s GC cannot prune the window underneath the benchmark.
				done := make(chan struct{})
				at := newPause("hold")
				hold := txn.MustProgram("hold", at.op)
				go func() {
					defer close(done)
					_, _, _ = run(context.Background(), e, 1, hold, metric.SpecOf(100000), txn.Query)
				}()
				<-at.started

				wSpec := metric.Spec{Import: metric.Zero, Export: metric.LimitOf(1000)}
				for i := 0; i < depth; i++ {
					p := txn.MustProgram("w", txn.AddOp(storage.Key(fmt.Sprintf("w%04d", i)), 1))
					if _, _, err := run(context.Background(), e, lock.Owner(100+i), p, wSpec, txn.Update); err != nil {
						b.Fatal(err)
					}
				}
				if got := e.Stats().GCRetained; got < depth {
					b.Fatalf("window = %d, want ≥ %d pinned", got, depth)
				}

				read := txn.MustProgram("r", txn.ReadOp("probe"))
				rSpec := metric.Spec{Import: metric.LimitOf(100000), Export: metric.Zero}
				cells := txn.Resolve(read, e.store, nil).Cells
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := e.Run(context.Background(), lock.Owner(1000000+i), read, cells, rSpec, txn.Query); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				close(at.release)
				<-done
			})
		}
	}
}
