package mart

import (
	"encoding/binary"
	"fmt"
	"math"
)

const nodeSize = 28

// AppendBinary appends the model's little-endian record to b: Bias,
// NumFeature and that many Importance float64s, Names (a uint32 count,
// then length-prefixed bytes each), and Trees (a uint32 count, then per
// tree a node count and per node Feature int32, Threshold, Left int32,
// Right int32, Value). Floats travel as their bits, so a decoded model
// re-encodes to the same bytes; the selector file holding the record
// versions and checksums it. A model Validate rejects is refused.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	b = le.AppendUint32(le.AppendUint64(b, math.Float64bits(m.Bias)), uint32(m.NumFeature))
	for _, v := range m.Importance {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint32(b, uint32(len(m.Names)))
	for _, s := range m.Names {
		b = append(le.AppendUint32(b, uint32(len(s))), s...)
	}
	b = le.AppendUint32(b, uint32(len(m.Trees)))
	for _, t := range m.Trees {
		b = le.AppendUint32(b, uint32(len(t.Nodes)))
		for _, n := range t.Nodes {
			b = le.AppendUint64(le.AppendUint32(b, uint32(n.Feature)), math.Float64bits(n.Threshold))
			b = le.AppendUint32(le.AppendUint32(b, uint32(n.Left)), uint32(n.Right))
			b = le.AppendUint64(b, math.Float64bits(n.Value))
		}
	}
	return b, nil
}

// DecodeBinary decodes a model from exactly the record AppendBinary
// wrote. Counts are checked against the bytes that remain before
// anything is allocated, and the model must pass Validate: malformed
// input is an error, never a panic or a Predict that cannot end.
func DecodeBinary(data []byte) (*Model, error) {
	le := binary.LittleEndian
	take := func(n int) []byte { // once data runs out: zeros, and data stays nil
		if data == nil || n > len(data) {
			data = nil
			return make([]byte, min(n, 8))
		}
		v := data[:n:n]
		data = data[n:]
		return v
	}
	u32 := func() int { return int(le.Uint32(take(4))) }
	f64 := func() float64 { return math.Float64frombits(le.Uint64(take(8))) }
	count := func(size int) int { // a count of elements of >= size bytes each
		if n := u32(); data != nil && n <= len(data)/size {
			return n
		}
		data = nil
		return 0
	}
	m := &Model{Bias: f64(), NumFeature: count(8)}
	m.Importance = make([]float64, m.NumFeature)
	for i := range m.Importance {
		m.Importance[i] = f64()
	}
	m.Names = make([]string, count(4))
	for i := range m.Names {
		m.Names[i] = string(take(u32()))
	}
	m.Trees = make([]tree, count(4))
	for ti := range m.Trees {
		nodes := make([]node, count(nodeSize))
		raw := take(len(nodes) * nodeSize)
		for i := range nodes {
			r := raw[i*nodeSize:]
			nodes[i] = node{Feature: int(int32(le.Uint32(r))), Threshold: math.Float64frombits(le.Uint64(r[4:])),
				Left: int(int32(le.Uint32(r[12:]))), Right: int(int32(le.Uint32(r[16:]))), Value: math.Float64frombits(le.Uint64(r[20:]))}
		}
		m.Trees[ti].Nodes = nodes
	}
	if data == nil || len(data) != 0 {
		return nil, fmt.Errorf("mart: decode: truncated record or trailing bytes")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks what Predict and the binary record rely on: one
// importance per feature, and per tree a root, int32 indexes, and splits
// on a feature in [0, NumFeature) into children placed after them — as
// training places them — so each prediction step moves deeper and ends.
func (m *Model) Validate() error {
	if m.NumFeature < 0 || m.NumFeature > math.MaxInt32 || len(m.Importance) != m.NumFeature {
		return fmt.Errorf("mart: invalid model: %d features, %d importances", m.NumFeature, len(m.Importance))
	}
	for ti, t := range m.Trees {
		if len(t.Nodes) == 0 || len(t.Nodes) > math.MaxInt32 {
			return fmt.Errorf("mart: invalid model: tree %d has %d nodes", ti, len(t.Nodes))
		}
		for i, n := range t.Nodes {
			if int(int32(n.Feature)) != n.Feature || int(int32(n.Left)) != n.Left || int(int32(n.Right)) != n.Right ||
				n.Left >= 0 && (n.Left <= i || n.Right <= i || n.Left >= len(t.Nodes) || n.Right >= len(t.Nodes) ||
					n.Feature < 0 || n.Feature >= m.NumFeature) {
				return fmt.Errorf("mart: invalid model: tree %d node %d splits on feature %d of %d into nodes %d, %d of %d",
					ti, i, n.Feature, m.NumFeature, n.Left, n.Right, len(t.Nodes))
			}
		}
	}
	return nil
}
