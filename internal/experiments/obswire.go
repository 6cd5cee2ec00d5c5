package experiments

import "asynctp/internal/obs"

// obsPlane is the package-default observability plane. The experiment
// entry points (Table1, Figure1..3, MethodComparison, EngineComparison,
// the distributed E2/E3 runs) predate the plane and keep their
// signatures; the bench CLIs (bankbench, distsim) thread their
// -spans/-metrics plane through here instead.
var obsPlane *obs.Plane

// SetObsPlane installs the plane every subsequently built runner or
// cluster in this package observes. Call it once, before running
// experiments, from the main goroutine. A nil plane (the default) keeps
// the instrumented pipeline's zero-cost disabled paths. Every runner and
// cluster built on the plane takes its own ID range (obs.Plane.IDBase),
// so their traces stay apart in one span store.
func SetObsPlane(p *obs.Plane) { obsPlane = p }
