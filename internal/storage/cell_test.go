package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"asynctp/internal/metric"
)

// TestResolvedCellIsAbsent: resolving a key hands out a cell that reads
// (0, 0) and is not a key of the store until something writes it.
func TestResolvedCellIsAbsent(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"a": 1})
	c := s.Cell("new")
	if v, ver := c.Load(); v != 0 || ver != 0 {
		t.Errorf("resolved cell reads (%d, %d), want (0, 0)", v, ver)
	}
	if s.Has("new") || s.Len() != 1 || len(s.Keys()) != 1 || len(s.Snapshot()) != 1 {
		t.Errorf("absent cell shows: Has=%v Len=%d Keys=%v", s.Has("new"), s.Len(), s.Keys())
	}
	if s.Cell("new") != c {
		t.Error("resolving a key twice gave two cells")
	}
	c.Set(3)
	if !s.Has("new") || s.Get("new") != 3 || s.Len() != 2 {
		t.Errorf("after Set through the handle: Has=%v Get=%d Len=%d", s.Has("new"), s.Get("new"), s.Len())
	}
}

// TestCellHandleSurvivesRestore: a handle resolved before a Restore
// reads the restored value and the restore's epoch afterwards, and a
// Restore that drops its key leaves it absent under a newer epoch.
func TestCellHandleSurvivesRestore(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"x": 1, "y": 2})
	c := s.Cell("x")
	must(t, s.ApplyStamped([]*Cell{c}, []Write{{Key: "x", Value: 10}}, 4))

	s.Restore(map[Key]metric.Value{"x": 7, "y": 2})
	v, ver := c.Load()
	if _, epoch := s.GetVersioned("y"); v != 7 || ver >= 0 || ver != epoch {
		t.Errorf("handle after Restore reads (%d, %d), want (7, epoch %d)", v, ver, epoch)
	}
	if s.Cell("x") != c {
		t.Error("Restore replaced the cell behind a live handle")
	}

	s.Restore(map[Key]metric.Value{"y": 2})
	v2, ver2 := c.Load()
	if v2 != 0 || ver2 >= ver || s.Has("x") {
		t.Errorf("handle after dropping Restore reads (%d, %d) Has=%v, want (0, epoch < %d) absent",
			v2, ver2, s.Has("x"), ver)
	}
	c.Set(9)
	if !s.Has("x") || s.Get("x") != 9 {
		t.Errorf("Set through the handle after a drop: Has=%v Get=%d", s.Has("x"), s.Get("x"))
	}
}

// TestCellLoadNeverTorn races lock-free readers against one writer that
// stores (i, i) into a hot cell: every pair a reader Loads must have
// value == version, or it saw half of one store and half of another.
func TestCellLoadNeverTorn(t *testing.T) {
	const stores = 100000
	s := New()
	c := s.Cell("hot")
	batch := []Write{{Key: "hot"}}
	cells := []*Cell{c}
	var done atomic.Bool
	var loads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, runtime.GOMAXPROCS(0))
	for r := 0; r < cap(errs); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for !done.Load() {
				v, ver := c.Load()
				n++
				if int64(v) != ver {
					errs <- fmt.Sprintf("torn read: value %d, version %d", v, ver)
					break
				}
			}
			loads.Add(n)
		}()
	}
	for i := int64(1); i <= stores; i++ {
		batch[0].Value = metric.Value(i)
		must(t, s.ApplyStamped(cells, batch, i))
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if v, ver := c.Load(); v != stores || ver != stores {
		t.Errorf("final pair (%d, %d), want (%d, %d)", v, ver, stores, stores)
	}
	t.Logf("%d loads against %d stores", loads.Load(), stores)
}

// TestCellLayout: a cell and a shard each fill one cache line.
func TestCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != cacheLine {
		t.Errorf("Cell is %d bytes, want %d", got, cacheLine)
	}
	if got := unsafe.Sizeof(dataShard{}); got != cacheLine {
		t.Errorf("dataShard is %d bytes, want %d", got, cacheLine)
	}
}
