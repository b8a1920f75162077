// Package progress implements the candidate progress estimators the
// selection framework chooses among: the three main prior estimators
// (DNE, TGN, LUO — Section 3.4), the worst-case-optimal estimators from
// the hardness line of work (PMAX, SAFE), the paper's three novel
// special-purpose estimators (BATCHDNE, DNESEEK, TGNINT — Section 5), and
// the two idealised models with oracle cardinalities used to validate the
// GetNext and Bytes-Processed models (Section 6.7).
//
// All estimators are pure functions over a prefix of an execution Trace,
// so one execution yields every estimator's series, and one
// implementation computes them: the streaming OnlineView, which evaluates
// every selectable estimator as the run advances — until a pipeline's
// pick is final, and then only the one it serves — keeping of the
// history only what a pick reads. The trace is the only history: the
// first finished read builds the view's table of every row from it.
// Everything read about a finished run — a served query's QueryRun, its
// training labels (workload.LabelView), the experiments' series — is
// read from the view that watched it, or from the finished view Replay
// builds from a trace.
//
// Whole-query progress (eq. 5) is one rule on the view, too: the live
// QueryEstimate a monitor serves after each snapshot and the finished
// AppendQuerySeries evaluate the same weighted combination, so a finished
// run reports, snapshot for snapshot, the query progress it served.
package progress

import "fmt"

// Kind identifies a progress estimator.
type Kind int

// The candidate estimators.
const (
	// DNE is the DriverNode estimator (eq. 4): progress of a pipeline is
	// the consumed fraction of its driver-node inputs.
	DNE Kind = iota
	// TGN is the Total GetNext estimator (eq. 3): executed GetNext calls
	// over estimated total GetNext calls, with bounds-refined estimates.
	TGN
	// LUO is the bytes-processed estimator of Luo et al.: bytes read at
	// the driver nodes plus bytes written at the pipeline output, over the
	// interpolation-refined total.
	LUO
	// PMAX assumes every remaining driver tuple triggers the maximum
	// per-tuple work observed so far (ratio error bounded by mu).
	PMAX
	// SAFE is the worst-case-optimal (in ratio error) estimator: the
	// geometric mean of lower and upper bounds on true progress.
	SAFE
	// BATCHDNE extends DNE's driver set with batch-sort nodes (eq. 6),
	// fixing DNE's overestimate on partially blocking nested iterations.
	BATCHDNE
	// DNESEEK extends DNE's driver set with index-seek nodes (eq. 7),
	// capturing skewed per-tuple work in nested iterations.
	DNESEEK
	// TGNINT applies Luo-style cardinality interpolation to the TGN
	// estimator (eq. 8).
	TGNINT

	// NumKinds is the number of selectable estimators.
	NumKinds

	// OracleGetNext is the idealised GetNext model using true totals N_i
	// (not selectable; used to validate the model, Section 6.7).
	OracleGetNext
	// OracleBytes is the idealised bytes-processed model with true totals.
	OracleBytes

	// TotalKinds counts all kinds including the oracle models; use it to
	// size arrays indexed by Kind.
	TotalKinds = int(OracleBytes) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case DNE:
		return "DNE"
	case TGN:
		return "TGN"
	case LUO:
		return "LUO"
	case PMAX:
		return "PMAX"
	case SAFE:
		return "SAFE"
	case BATCHDNE:
		return "BATCHDNE"
	case DNESEEK:
		return "DNESEEK"
	case TGNINT:
		return "TGNINT"
	case OracleGetNext:
		return "ORACLE-GETNEXT"
	case OracleBytes:
		return "ORACLE-BYTES"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns all selectable estimator kinds in index order.
func Kinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// AllKinds returns the selectable kinds plus the oracle models.
func AllKinds() []Kind {
	return append(Kinds(), OracleGetNext, OracleBytes)
}

// CoreKinds returns the three previously proposed estimators the paper's
// first experiments select among.
func CoreKinds() []Kind { return []Kind{DNE, TGN, LUO} }

// ExtendedKinds returns the core estimators plus the paper's novel ones
// (the six-way selection of Figure 5's right half).
func ExtendedKinds() []Kind {
	return []Kind{DNE, TGN, LUO, BATCHDNE, DNESEEK, TGNINT}
}
