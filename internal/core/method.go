// Package core implements the paper's contribution: executing chopped
// epsilon transactions under concurrency control or divergence control —
// the two baselines and the three combined methods of Table 1:
//
//	                │ CC (concurrency ctl) │ DC (divergence ctl)
//	────────────────┼──────────────────────┼────────────────────
//	SR-chopping     │ SR        (Shasha)   │ ESR¹  (Method 1)
//	ESR-chopping    │ ESR²      (Method 2) │ ESR³  (Method 3)
//
// plus the unchopped baselines (classic serializable OLTP, and plain ESR
// with divergence control). A Runner prepares the chopping off-line from
// the declared job stream, then executes program instances: the first
// piece commits first (business rollbacks only fire there), and the
// remaining pieces commit asynchronously, resubmitted on system aborts
// until they commit. For divergence-control methods the ε-spec of each
// transaction is distributed over its pieces statically (Section 2.2.1)
// or dynamically (Figure 2).
package core

import "fmt"

// Method selects the off-line × on-line combination.
type Method int

// Methods: two baselines, the Shasha chopping, and the paper's three
// combinations.
const (
	// BaselineSRCC runs unchopped transactions under two-phase locking:
	// classic serializable OLTP.
	BaselineSRCC Method = iota + 1
	// BaselineESRDC runs unchopped epsilon transactions under divergence
	// control: plain ESR.
	BaselineESRDC
	// SRChopCC runs the finest SR-chopping under concurrency control
	// (Shasha et al.): still serializable w.r.t. the original set.
	SRChopCC
	// Method1SRChopDC runs the SR-chopping under divergence control
	// (ESR¹), distributing each ε-spec over the restricted pieces.
	Method1SRChopDC
	// Method2ESRChopCC runs the (finer) ESR-chopping under concurrency
	// control (ESR²): the inconsistency comes only from inter-sibling
	// fuzziness, bounded off-line.
	Method2ESRChopCC
	// Method3ESRChopDC runs the ESR-chopping under divergence control
	// (ESR³) with the DC budget reduced by the inter-sibling reserve
	// (Equation 6).
	Method3ESRChopDC
)

// String renders the method name.
func (m Method) String() string {
	switch m {
	case BaselineSRCC:
		return "baseline-sr-cc"
	case BaselineESRDC:
		return "baseline-esr-dc"
	case SRChopCC:
		return "sr-chop-cc"
	case Method1SRChopDC:
		return "method1-sr-chop-dc"
	case Method2ESRChopCC:
		return "method2-esr-chop-cc"
	case Method3ESRChopDC:
		return "method3-esr-chop-dc"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists every method in presentation order.
func Methods() []Method {
	return []Method{
		BaselineSRCC, BaselineESRDC, SRChopCC,
		Method1SRChopDC, Method2ESRChopCC, Method3ESRChopDC,
	}
}

// UsesDC reports whether the method runs under divergence control.
func (m Method) UsesDC() bool {
	switch m {
	case BaselineESRDC, Method1SRChopDC, Method3ESRChopDC:
		return true
	default:
		return false
	}
}

// UsesChopping reports whether the method chops at all.
func (m Method) UsesChopping() bool {
	switch m {
	case BaselineSRCC, BaselineESRDC:
		return false
	default:
		return true
	}
}

// usesESRChopping reports whether the off-line phase is ESR-chopping.
func (m Method) usesESRChopping() bool {
	return m == Method2ESRChopCC || m == Method3ESRChopDC
}

// Distribution selects the ε-spec distribution policy for DC methods.
type Distribution int

// Distribution policies.
const (
	// Static splits each transaction's limit evenly over its restricted
	// pieces off-line (Section 2.2.1).
	Static Distribution = iota + 1
	// Dynamic propagates leftover limits down the piece dependency tree
	// at runtime (Figure 2).
	Dynamic
	// Naive splits evenly over ALL pieces, ignoring restrictedness — the
	// ablation baseline.
	Naive
	// Proportional splits over restricted pieces proportionally to their
	// conflict exposure (generalizing the paper's equal-weight
	// simplification).
	Proportional
)

// String renders the distribution name.
func (d Distribution) String() string {
	switch d {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Naive:
		return "naive"
	case Proportional:
		return "proportional"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}
