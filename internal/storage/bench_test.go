package storage

import (
	"sync"
	"sync/atomic"
	"testing"

	"asynctp/internal/metric"
)

// benchSink keeps the benchmarks' reads live.
var benchSink atomic.Int64

// BenchmarkHotKeyRead reads one hot key from every P while a writer
// goroutine keeps storing into it: through the key path (hash, shard
// mutex, map probe, then the cell) and through a resolved Cell.Load,
// which takes no lock.
func BenchmarkHotKeyRead(b *testing.B) {
	for _, bc := range []struct {
		name string
		read func(s *Store, c *Cell) metric.Value
	}{
		{"key", func(s *Store, _ *Cell) metric.Value { return s.Get("hot") }},
		{"cell", func(_ *Store, c *Cell) metric.Value { v, _ := c.Load(); return v }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewFrom(map[Key]metric.Value{"hot": 1})
			c := s.Cell("hot")
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := metric.Value(2); !stop.Load(); v++ {
					c.Set(v)
				}
			}()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var sum metric.Value
				for pb.Next() {
					sum += bc.read(s, c)
				}
				benchSink.Add(int64(sum))
			})
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}
