// Package ingest turns the daemon into progress-estimation-as-a-service:
// an external executor opens an estimation session by describing its
// plan and pipeline shape, streams batched GetNext/bytes counter
// observations, and reads back the same ProgressUpdate stream native
// queries get. A session synthesizes the exec.Observer event stream —
// pipeline starts, counter snapshots, pipeline ends, completion — from
// the ingested counters, so the OnlineView/selector machinery downstream
// runs unchanged and its estimates are bit-identical to an in-process
// run observing the same counters.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Spec is the session-open wire form (POST /sessions): the external
// query's plan shape, pipeline decomposition and driver-input totals,
// plus the metadata (workload, family, client) the admission gate and
// the learning loop key on.
type Spec struct {
	// Workload names the external engine or workload; harvested examples
	// record it as their workload tag.
	Workload string `json:"workload"`
	// Family is the session's workload family: its admission class and
	// the corpus tag its harvested examples carry.
	Family string `json:"family"`
	// Client optionally refines the admission class to "family|client",
	// exactly as a tagged native submission would.
	Client string `json:"client,omitempty"`
	// DeadlineMS optionally bounds the admission wait in milliseconds
	// (deadline-aware admission sheds sessions it cannot serve in time).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// UpdateEvery overrides the ProgressUpdate granularity: one update
	// per n-th ingested snapshot (0 = the server's default).
	UpdateEvery int `json:"update_every,omitempty"`
	// Nodes is the plan's operator tree in depth-first children-before-
	// parent order (the root is last); positions are the node IDs that
	// observation deltas address.
	Nodes []NodeSpec `json:"nodes"`
	// Pipelines optionally declares the pipeline decomposition
	// explicitly. When omitted it is derived from the operator semantics,
	// exactly as for a native plan.
	Pipelines []PipelineSpec `json:"pipelines,omitempty"`
}

// NodeSpec is one plan operator on the wire.
type NodeSpec struct {
	// Op is the operator name (TableScan, IndexScan, IndexSeek, Filter,
	// Project, HashJoin, MergeJoin, NestedLoopJoin, SemiJoin, Sort,
	// BatchSort, HashAgg, StreamAgg, Top).
	Op string `json:"op"`
	// Children are the node's input positions; they must precede the
	// node in the Nodes list (depth-first order).
	Children []int `json:"children,omitempty"`
	// Table is the scanned table's name, for scan/seek operators.
	Table string `json:"table,omitempty"`
	// EstRows is the optimizer's output-cardinality estimate E_i.
	EstRows float64 `json:"est_rows"`
	// RowWidth is the logical bytes per output row.
	RowWidth float64 `json:"row_width,omitempty"`
	// TopN is Top's row limit; BatchSize BatchSort's batch size.
	TopN      int64 `json:"top_n,omitempty"`
	BatchSize int   `json:"batch_size,omitempty"`
	// Total, when set, is the node's exact driver-input size, known
	// before its pipeline starts (a scan's table size, a blocking
	// operator's buffered output size). A pipeline whose drivers all
	// carry totals gets the exact-denominator estimators; one missing
	// total falls the pipeline back to plan-time cardinalities.
	Total *int64 `json:"total,omitempty"`
}

// PipelineSpec is one explicitly declared pipeline.
type PipelineSpec struct {
	// Nodes are the member node positions; Drivers the subset that are
	// driver nodes (the paper's DNodes).
	Nodes   []int `json:"nodes"`
	Drivers []int `json:"drivers,omitempty"`
}

// Batch is the observation-batch wire form (POST
// /sessions/{id}/observations): an ordered event stream plus an
// optional completion marker.
type Batch struct {
	// Events apply in order; times must be non-decreasing across events
	// and strictly increasing between snapshots.
	Events []Event `json:"events,omitempty"`
	// Done completes the session after the events apply: remaining
	// pipelines end, the trace is finalized and harvested.
	Done bool `json:"done,omitempty"`
	// Ends optionally carries exact pipeline end times with Done;
	// pipelines without one end at their last observed activity.
	Ends []PipeEnd `json:"ends,omitempty"`
}

// Event is one wire event: exactly one of Start or Snapshot is set.
type Event struct {
	Start    *StartEvent    `json:"start,omitempty"`
	Snapshot *SnapshotEvent `json:"snapshot,omitempty"`
}

// StartEvent marks a pipeline's first activity. Explicit starts are
// optional — a snapshot whose deltas touch a not-yet-started pipeline
// starts it implicitly at the snapshot's time — but carrying the exact
// start keeps replayed streams bit-identical to native execution.
type StartEvent struct {
	Pipeline int     `json:"pipeline"`
	Time     float64 `json:"time"`
}

// SnapshotEvent is one counter observation: the deltas since the
// previous snapshot, for the nodes whose counters advanced. Deltas must
// be non-negative — the counters are monotone by definition, and a
// regression is rejected rather than silently clamped.
type SnapshotEvent struct {
	Time   float64 `json:"time"`
	Deltas []Delta `json:"deltas,omitempty"`
}

// Delta is one node's counter advance: GetNext calls (K), logical bytes
// read (R) and written (W).
type Delta struct {
	Node int   `json:"node"`
	K    int64 `json:"k,omitempty"`
	R    int64 `json:"r,omitempty"`
	W    int64 `json:"w,omitempty"`
}

// PipeEnd is one pipeline's exact end time, carried with Done.
type PipeEnd struct {
	Pipeline int     `json:"pipeline"`
	Time     float64 `json:"time"`
}

// MaxBatchBytes bounds one observation batch's wire size (and a session
// spec's): a session streams many small batches, so an oversized body is
// a client bug (or abuse), not a use case.
const MaxBatchBytes = 8 << 20

// ErrBatchTooLarge rejects a request body — an observation batch or a
// session spec — above the wire bound.
var ErrBatchTooLarge = errors.New("ingest: request body exceeds the wire size bound")

// DecodeSpec strictly decodes a session-open spec from r. A body over
// MaxBatchBytes is ErrBatchTooLarge, not a truncated read.
func DecodeSpec(r io.Reader) (*Spec, error) {
	body := &io.LimitedReader{R: r, N: MaxBatchBytes + 1}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var s Spec
	err := dec.Decode(&s)
	if body.N <= 0 {
		return nil, fmt.Errorf("%w: spec over %d bytes", ErrBatchTooLarge, MaxBatchBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: invalid spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after body", ErrInvalid)
	}
	return &s, nil
}
