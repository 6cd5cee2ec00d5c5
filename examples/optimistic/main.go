// Optimistic: the same ESR workload under two divergence-control
// families of the paper's reference [12] — the lock-based controller the
// paper prototyped on Encina and the validation-based (optimistic) one.
// Readers never block under the optimistic engine, so a read-mostly
// workload finishes far faster; the price appears as aborts (redone
// work) once non-commuting writers contend.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"asynctp"
)

const (
	transfers = 40
	audits    = 40
	epsilon   = 20000
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// drive runs the declared stream and reports elapsed time plus engine
// counters.
func drive(kind asynctp.EngineKind) (time.Duration, string, error) {
	store := asynctp.NewStoreFrom(map[asynctp.Key]asynctp.Value{
		"X": 1000000, "Y": 1000000,
	})
	spec := asynctp.SpecOf(epsilon)
	programs := []*asynctp.Program{
		asynctp.MustProgram("xfer",
			asynctp.AddOp("X", -100), asynctp.AddOp("Y", 100)).WithSpec(spec),
		asynctp.MustProgram("audit",
			asynctp.ReadOp("X"), asynctp.ReadOp("Y")).WithSpec(spec),
	}
	runner, err := asynctp.NewRunner(asynctp.Config{
		Method:   asynctp.BaselineESRDC,
		Store:    store,
		Programs: programs,
		Counts:   []int{transfers, audits},
		Engine:   kind,
		OpDelay:  200 * time.Microsecond, // operations take time
	})
	if err != nil {
		return 0, "", err
	}
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for ti, count := range []int{transfers, audits} {
		for i := 0; i < count; i++ {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				if _, err := runner.Submit(ctx, ti); err != nil {
					log.Printf("submit: %v", err)
				}
			}(ti)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	var detail string
	switch kind {
	case asynctp.EngineOptimistic:
		st := runner.RDCStats()
		detail = fmt.Sprintf("validation aborts=%d absorbed=%d", st.Aborts, st.Absorbed)
	default:
		ls := runner.LockStats()
		ds := runner.DCStats()
		detail = fmt.Sprintf("lock blocks=%d fuzzy grants=%d", ls.Blocks, ds.Absorbed)
	}
	if total := store.SumAll(); total != 2000000 {
		return 0, "", fmt.Errorf("money not conserved: %d", total)
	}
	return elapsed, detail, nil
}

func run() error {
	for _, kind := range []asynctp.EngineKind{
		asynctp.EngineLocking, asynctp.EngineOptimistic,
	} {
		elapsed, detail, err := drive(kind)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s elapsed=%-10v %s\n", kind, elapsed.Round(time.Millisecond), detail)
	}
	fmt.Println("\nsame ε guarantees, same conserved total — different concurrency")
	fmt.Println("mechanics: locking blocks conflicting readers; the optimistic engine")
	fmt.Println("lets them run and charges the ε accounts after the fact.")
	return nil
}
