// Package asynctp is an asynchronous transaction processing library: a
// from-scratch reproduction of Hseush & Pu, "A Practical Technique for
// Asynchronous Transaction Processing" (ICDCS 1995).
//
// The library combines two techniques that relax the synchronous nature
// of serializable OLTP:
//
//   - Epsilon serializability (ESR): transactions carry an ε-spec
//     bounding how much inconsistency they may import or export;
//     divergence control (a 2PL variant) grants bounded read/write
//     conflicts instead of blocking.
//   - Transaction chopping (Shasha et al.): an off-line restructuring
//     splitting transactions into pieces that commit independently.
//
// And it implements the paper's three combined methods:
//
//	Method 1 — SR-chopping under divergence control (ESR¹)
//	Method 2 — ESR-chopping under concurrency control (ESR²)
//	Method 3 — ESR-chopping under divergence control (ESR³)
//
// # Declaring transactions
//
// Transactions are declared programs — ordered operation lists over keys
// with declared write bounds, so the chopper can see every access and
// every rollback statement:
//
//	xfer := asynctp.MustProgram("transfer",
//		asynctp.AddOp("checking", -100),
//		asynctp.AddOp("savings", +100),
//	).WithSpec(asynctp.SpecOf(500)) // ε = $5.00
//
// # Running a job stream
//
// A Runner prepares the chopping for a declared stream (program types
// plus instance counts) and executes submitted instances under the
// chosen method:
//
//	r, err := asynctp.NewRunner(asynctp.Config{
//		Method:   asynctp.Method3ESRChopDC,
//		Store:    asynctp.NewStoreFrom(initial),
//		Programs: []*asynctp.Program{xfer, audit},
//		Counts:   []int{100, 10},
//	})
//	res, err := r.Submit(ctx, 0)
//
// # Distributed execution
//
// The site package's Cluster runs transactions across simulated sites
// either under two-phase commit or as chopped pieces flowing through
// recoverable queues (the paper's Section 4), exposed here as
// NewCluster/ClusterConfig.
package asynctp

import (
	"asynctp/internal/chop"
	"asynctp/internal/core"
	"asynctp/internal/history"
	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Value, Fuzz, Limit and Spec form the metric value model.
type (
	// Value is a point in the metric value space (integer cents).
	Value = metric.Value
	// Fuzz is an amount of inconsistency.
	Fuzz = metric.Fuzz
	// Limit is an inconsistency limit, possibly infinite.
	Limit = metric.Limit
	// Spec is a full ε-spec (import and export limits).
	Spec = metric.Spec
)

// Key names a data item.
type Key = storage.Key

// Store is the in-memory versioned key-value store.
type Store = storage.Store

// Program, Op and friends declare transactions.
type (
	// Program is a declared transaction.
	Program = txn.Program
	// Op is one operation of a program.
	Op = txn.Op
)

// Runner types.
type (
	// Config configures a Runner.
	Config = core.Config
	// Runner executes a declared job stream under one method.
	Runner = core.Runner
	// InstanceResult is one submitted instance's outcome.
	InstanceResult = core.InstanceResult
	// Method selects the off-line × on-line combination.
	Method = core.Method
	// Distribution selects the ε-distribution policy.
	Distribution = core.Distribution
	// EngineKind selects the on-line engine family.
	EngineKind = core.EngineKind
)

// Engine kinds (locking is the default).
const (
	EngineLocking    = core.EngineLocking
	EngineOptimistic = core.EngineOptimistic
	EngineTimestamp  = core.EngineTimestamp
	EngineRepair     = core.EngineRepair
	EngineRepairSkip = core.EngineRepairSkip
)

// Methods (Table 1 plus baselines).
const (
	// BaselineSRCC is classic serializable OLTP.
	BaselineSRCC = core.BaselineSRCC
	// BaselineESRDC is plain ESR without chopping.
	BaselineESRDC = core.BaselineESRDC
	// SRChopCC is Shasha's chopping under concurrency control.
	SRChopCC = core.SRChopCC
	// Method1SRChopDC is ESR¹.
	Method1SRChopDC = core.Method1SRChopDC
	// Method2ESRChopCC is ESR².
	Method2ESRChopCC = core.Method2ESRChopCC
	// Method3ESRChopDC is ESR³.
	Method3ESRChopDC = core.Method3ESRChopDC
)

// Distribution policies.
const (
	// Static splits ε evenly over restricted pieces off-line.
	Static = core.Static
	// Dynamic propagates leftover limits at runtime (Figure 2).
	Dynamic = core.Dynamic
	// Naive splits over all pieces (ablation baseline).
	Naive = core.Naive
	// Proportional splits by conflict exposure.
	Proportional = core.Proportional
)

// Chopping analysis types.
type (
	// Chopped is one program with a chosen partition.
	Chopped = chop.Chopped
	// Stream is a declared job stream with instance counts.
	Stream = chop.Stream
	// StreamItem is one program type and its count.
	StreamItem = chop.StreamItem
	// StreamAnalysis is the multiplicity-aware chopping analysis.
	StreamAnalysis = chop.StreamAnalysis
)

// History checking.
type (
	// HistoryRecorder records histories for serializability checking.
	HistoryRecorder = history.Recorder
	// HistoryGroup identifies an original transaction when checking a
	// chopped execution.
	HistoryGroup = history.Group
)

// Distributed execution.
type (
	// SiteID names a simulated site.
	SiteID = simnet.SiteID
	// ClusterConfig configures a distributed cluster.
	ClusterConfig = site.Config
	// Cluster is a set of simulated sites.
	Cluster = site.Cluster
	// ClusterResult is one distributed submission's outcome.
	ClusterResult = site.Result
	// Strategy selects 2PC vs chopped recoverable queues.
	Strategy = site.Strategy
)

// Distributed strategies.
const (
	// TwoPhaseCommit runs distributed transactions under blocking 2PC.
	TwoPhaseCommit = site.TwoPhaseCommit
	// ChoppedQueues chops at site boundaries with recoverable queues.
	ChoppedQueues = site.ChoppedQueues
)

// Program construction.
var (
	// NewProgram builds a validated program.
	NewProgram = txn.NewProgram
	// MustProgram is NewProgram that panics on error.
	MustProgram = txn.MustProgram
	// ReadOp reads a key.
	ReadOp = txn.ReadOp
	// AddOp adds a delta (commutes with other adds; bound = |delta|).
	AddOp = txn.AddOp
	// SetOp assigns a value (unbounded delta).
	SetOp = txn.SetOp
	// TransformOp writes f(old) with a declared bound.
	TransformOp = txn.TransformOp
	// WithAbortIf attaches a rollback predicate to an op.
	WithAbortIf = txn.WithAbortIf
)

// Limits and specs.
var (
	// LimitOf returns a finite limit.
	LimitOf = metric.LimitOf
	// SpecOf returns a Spec with the same bound on both sides.
	SpecOf = metric.SpecOf
	// Distance is the metric-space distance.
	Distance = metric.Distance
)

// Infinite is the unbounded limit; Strict and Unbounded are the extreme
// ε-specs.
var (
	Infinite  = metric.Infinite
	Strict    = metric.Strict
	Unbounded = metric.Unbounded
)

// NewStore returns an empty store; NewStoreFrom seeds one.
var (
	NewStore     = storage.New
	NewStoreFrom = storage.NewFrom
)

// NewRunner prepares a chopping for the configured job stream and builds
// the execution stack.
var NewRunner = core.NewRunner

// NewCluster builds and starts a distributed cluster.
var NewCluster = site.NewCluster

// Chopping entry points.
var (
	// Whole returns a program unchopped.
	Whole = chop.Whole
	// Finest returns the finest rollback-safe chopping.
	Finest = chop.Finest
	// FromCuts builds a chopping with explicit boundaries.
	FromCuts = chop.FromCuts
	// StreamOf builds a Stream with count 1 per program.
	StreamOf = chop.StreamOf
	// AnalyzeStream analyzes given choppings against a stream.
	AnalyzeStream = chop.AnalyzeStream
	// FindSRStream computes an SR-chopping for a stream.
	FindSRStream = chop.FindSRStream
	// FindESRStream computes an ESR-chopping for a stream.
	FindESRStream = chop.FindESRStream
)
