package txn

import (
	"fmt"

	"asynctp/internal/lock"
	"asynctp/internal/storage"
)

// StepKind names the execution point a StepHook is consulted at. The
// points bracket exactly the windows a schedule explorer needs to
// control: before a lock/admission request (where blocking or absorption
// decisions happen), before an operation's effect is applied, and before
// the commit/validation critical section.
type StepKind int

// Step kinds.
const (
	// StepAcquire fires before the engine requests admission for an
	// operation (lock acquisition under 2PL, timestamp admission under
	// TO). The op has had no effect yet.
	StepAcquire StepKind = iota + 1
	// StepApply fires after admission, immediately before the operation
	// reads or writes the store.
	StepApply
	// StepCommit fires before the commit point (the batch apply under
	// locking, the validate-and-install critical section under OCC, the
	// install section under TO). Key is empty.
	StepCommit
)

// String renders the step kind.
func (k StepKind) String() string {
	switch k {
	case StepAcquire:
		return "acquire"
	case StepApply:
		return "apply"
	case StepCommit:
		return "commit"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step describes one scheduling point of one executing transaction.
type Step struct {
	// Owner is the executing transaction (piece attempt).
	Owner lock.Owner
	// Program is the running program's name.
	Program string
	// Op is the index of the operation within the program (-1 for
	// StepCommit).
	Op int
	// Kind is the execution point.
	Kind StepKind
	// Key is the item the operation touches (empty for StepCommit).
	Key storage.Key
	// Write reports whether the operation writes Key.
	Write bool
}

// String renders the step for schedule logs.
func (s Step) String() string {
	if s.Kind == StepCommit {
		return fmt.Sprintf("t%d %s %s", s.Owner, s.Program, s.Kind)
	}
	rw := "r"
	if s.Write {
		rw = "w"
	}
	return fmt.Sprintf("t%d %s op%d %s %s(%s)", s.Owner, s.Program, s.Op, s.Kind, rw, s.Key)
}

// StepHook gates execution progress, in the style of fault.Hook: the
// engines call OnStep at every scheduling point and only proceed when it
// returns. A deterministic schedule explorer implements OnStep by parking
// the calling goroutine until the seeded scheduler grants its turn; a nil
// hook (the default everywhere) costs one branch per operation.
//
// OnStep may block. It is called without any engine-internal mutex held.
type StepHook interface {
	OnStep(s Step)
}
