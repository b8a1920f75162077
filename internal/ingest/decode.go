package ingest

import (
	"bytes"
	"fmt"
	"strconv"
)

// The observation-batch grammar. A batch is JSON restricted to five
// object shapes — keys matched byte for byte, each at most once per
// object, in any order, every one optional:
//
//	batch    = { "events": [event…], "done": bool, "ends": [end…] }
//	event    = { "start": start } | { "snapshot": snapshot }
//	start    = { "pipeline": int, "time": float }
//	end      = { "pipeline": int, "time": float }
//	snapshot = { "time": float, "deltas": [delta…] }
//	delta    = { "node": int, "k": int, "r": int, "w": int }
//
// An int is a JSON number with no fraction or exponent that fits int64; a
// float is any JSON number strconv.ParseFloat places in float64's range.
// There are no strings among the values and null is accepted nowhere.
// Insignificant whitespace is accepted wherever JSON accepts it, and
// nothing but whitespace may follow the batch.

// BatchDecoder decodes observation batches into slabs it keeps between
// calls: every Event, StartEvent, SnapshotEvent, Delta and PipeEnd of
// a decoded Batch lives in one of five flat slices, and the Batch's
// pointers and sub-slices address them. A decoded Batch is therefore
// valid only until the decoder's next Decode — Runner.Apply and
// Runner.Finish copy what they keep, so a caller that hands the Batch to
// those and nothing else may reuse the decoder straight after. The zero
// value is ready to use.
type BatchDecoder struct {
	data []byte
	pos  int

	batch  Batch
	events []Event
	starts []StartEvent
	snaps  []SnapshotEvent
	deltas []Delta
	ends   []PipeEnd
}

// DecodeBatch strictly decodes one observation batch into memory the
// caller owns. Strict means the grammar above and nothing else: an
// unknown, misspelt or repeated key, a null, a fractional or out-of-range
// counter, an event without exactly one of start/snapshot and trailing
// data are all errors matching ErrInvalid, so a client schema drift fails
// loudly instead of silently dropping counters.
func DecodeBatch(data []byte) (*Batch, error) {
	return new(BatchDecoder).Decode(data)
}

// Decode is DecodeBatch into the decoder's slabs; the previous Decode's
// Batch is overwritten.
func (d *BatchDecoder) Decode(data []byte) (*Batch, error) {
	if len(data) > MaxBatchBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBatchTooLarge, len(data))
	}
	d.data, d.pos = data, 0
	d.batch = Batch{}
	d.events, d.starts, d.snaps = d.events[:0], d.starts[:0], d.snaps[:0]
	d.deltas, d.ends = d.deltas[:0], d.ends[:0]
	err := d.parseBatch()
	if err == nil {
		if d.peek(); d.pos < len(data) {
			err = d.errorf("trailing data after body")
		}
	}
	d.data = nil
	if err != nil {
		return nil, err
	}
	d.link()
	return &d.batch, nil
}

// link points the batch at the slabs' final backing arrays. While
// parsing, an event's pointer and a snapshot's Deltas only mark which
// kind the event is and how many deltas it has (an append may move a slab
// after they are taken); events, snapshots and deltas were appended in
// document order, so running indexes recover every position.
func (d *BatchDecoder) link() {
	si, ni, off := 0, 0, 0
	for i := range d.events {
		ev := &d.events[i]
		if ev.Start != nil {
			ev.Start = &d.starts[si]
			si++
			continue
		}
		sn := &d.snaps[ni]
		ni++
		if sn.Deltas != nil {
			end := off + len(sn.Deltas)
			sn.Deltas = d.deltas[off:end:end]
			off = end
		}
		ev.Snapshot = sn
	}
	if d.batch.Events != nil {
		d.batch.Events = d.events[:len(d.events):len(d.events)]
	}
	if d.batch.Ends != nil {
		d.batch.Ends = d.ends[:len(d.ends):len(d.ends)]
	}
}

// batchError is a grammar violation at a byte offset of the body.
type batchError struct {
	off int
	msg string
}

func (e *batchError) Error() string {
	return fmt.Sprintf("ingest: invalid batch: %s (offset %d)", e.msg, e.off)
}

// Is makes every grammar violation match ErrInvalid.
func (e *batchError) Is(target error) bool { return target == ErrInvalid }

func (d *BatchDecoder) errorf(format string, args ...any) error {
	return &batchError{off: d.pos, msg: fmt.Sprintf(format, args...)}
}

// want reports the value at the cursor as not the one the grammar has
// there.
func (d *BatchDecoder) want(what string) error {
	switch c := d.peek(); {
	case d.pos == len(d.data):
		return d.errorf("unexpected end of input, want %s", what)
	case bytes.HasPrefix(d.data[d.pos:], []byte("null")):
		return d.errorf("null, want %s (the batch grammar has no null)", what)
	default:
		return d.errorf("unexpected %q, want %s", c, what)
	}
}

// One bit per key of the grammar: an object shape is the set it allows,
// and the set already seen in one object catches a repeat.
const (
	keyEvents = 1 << iota
	keyDone
	keyEnds
	keyStart
	keySnapshot
	keyPipeline
	keyTime
	keyDeltas
	keyNode
	keyK
	keyR
	keyW
)

func keyBit(name []byte) uint {
	switch string(name) {
	case "events":
		return keyEvents
	case "done":
		return keyDone
	case "ends":
		return keyEnds
	case "start":
		return keyStart
	case "snapshot":
		return keySnapshot
	case "pipeline":
		return keyPipeline
	case "time":
		return keyTime
	case "deltas":
		return keyDeltas
	case "node":
		return keyNode
	case "k":
		return keyK
	case "r":
		return keyR
	case "w":
		return keyW
	}
	return 0
}

// peek skips insignificant whitespace and returns the byte at the
// cursor, 0 at the end of the input (a literal NUL is no token either).
func (d *BatchDecoder) peek() byte {
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		d.pos++
	}
	return 0
}

// open consumes the opening bracket of an object or array and reports
// whether it has a first member; an empty one is consumed whole.
func (d *BatchDecoder) open(opening, closing byte, what string) (bool, error) {
	if d.peek() != opening {
		return false, d.want(what)
	}
	d.pos++
	if d.peek() == closing {
		d.pos++
		return false, nil
	}
	return true, nil
}

// more consumes what follows a member: a comma (another member follows)
// or the closing bracket.
func (d *BatchDecoder) more(closing byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closing:
		d.pos++
		return false, nil
	}
	return false, d.want(fmt.Sprintf("',' or %q", closing))
}

// member consumes `"key":` and returns the key's bit, which must be one
// the object shape allows and not yet in seen.
func (d *BatchDecoder) member(allowed uint, seen *uint) (uint, error) {
	if d.peek() != '"' {
		return 0, d.want("an object key")
	}
	// The grammar's keys are 1–8 bytes with no escapes: the closing quote
	// is the next one, and a loop finds it sooner than a call would.
	start, end := d.pos+1, d.pos+1
	for end < len(d.data) && d.data[end] != '"' {
		end++
	}
	if end == len(d.data) {
		return 0, d.errorf("unterminated object key")
	}
	name := d.data[start:end]
	bit := keyBit(name)
	switch {
	case bit&allowed == 0:
		return 0, d.errorf("unknown field %q", name)
	case bit&*seen != 0:
		return 0, d.errorf("duplicate field %q", name)
	}
	*seen |= bit
	d.pos = end + 1
	if d.peek() != ':' {
		return 0, d.want("':'")
	}
	d.pos++
	return bit, nil
}

func digit(c byte) bool { return '0' <= c && c <= '9' }

// integer parses a JSON number that is an int64 literal.
func (d *BatchDecoder) integer() (int64, error) {
	c := d.peek()
	neg := c == '-'
	i := d.pos
	if neg {
		i++
	}
	if i >= len(d.data) || !digit(d.data[i]) {
		return 0, d.want("an integer")
	}
	first := i
	var n uint64
	for ; i < len(d.data) && digit(d.data[i]); i++ {
		if n > (1<<63)/10 {
			return 0, d.errorf("integer out of int64 range")
		}
		n = n*10 + uint64(d.data[i]-'0')
	}
	switch {
	case d.data[first] == '0' && i > first+1:
		return 0, d.errorf("number with a leading zero")
	case i < len(d.data) && (d.data[i] == '.' || d.data[i] == 'e' || d.data[i] == 'E'):
		return 0, d.errorf("counter or index is not an integer literal")
	case n > 1<<63 || n == 1<<63 && !neg:
		return 0, d.errorf("integer out of int64 range")
	}
	d.pos = i
	if neg {
		return int64(-n), nil
	}
	return int64(n), nil
}

// index parses an integer that addresses a node or pipeline.
func (d *BatchDecoder) index() (int, error) {
	n, err := d.integer()
	if err == nil && int64(int(n)) != n {
		err = d.errorf("index out of int range")
	}
	return int(n), err
}

// float scans one number by the JSON grammar and converts it the way
// encoding/json does, so a decoded time carries the same bits.
func (d *BatchDecoder) float() (float64, error) {
	d.peek()
	data, i := d.data, d.pos
	digits := func() bool {
		from := i
		for i < len(data) && digit(data[i]) {
			i++
		}
		return i > from
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	first := i
	if !digits() {
		return 0, d.want("a number")
	}
	if data[first] == '0' && i > first+1 {
		return 0, d.errorf("number with a leading zero")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return 0, d.errorf("number with no digits after the point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return 0, d.errorf("number with no digits in the exponent")
		}
	}
	f, err := strconv.ParseFloat(string(data[d.pos:i]), 64)
	if err != nil {
		return 0, d.errorf("number out of float64 range")
	}
	d.pos = i
	return f, nil
}

func (d *BatchDecoder) boolean() (bool, error) {
	d.peek()
	switch rest := d.data[d.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.pos += len("true")
		return true, nil
	case bytes.HasPrefix(rest, []byte("false")):
		d.pos += len("false")
		return false, nil
	}
	return false, d.want("true or false")
}

// slab returns s ready for appends and non-nil, so that an empty JSON
// array decodes to an empty slice and an absent one stays nil. A fresh
// slab is sized from the body's length at perItem wire bytes an item,
// chosen so that a recorded batch grows none of them: per delta a batch
// has 23–80 bytes, per event 70–250, and starts and ends are the few
// items beside those.
func slab[T any](s []T, bodyLen, perItem int) []T {
	if s == nil {
		return make([]T, 0, bodyLen/perItem+1)
	}
	return s
}

func (d *BatchDecoder) parseBatch() error {
	var seen uint
	more, err := d.open('{', '}', "a batch object")
	for more && err == nil {
		var key uint
		if key, err = d.member(keyEvents|keyDone|keyEnds, &seen); err != nil {
			return err
		}
		switch key {
		case keyEvents:
			d.events = slab(d.events, len(d.data), 64)
			err = d.parseEvents()
			d.batch.Events = d.events
		case keyDone:
			d.batch.Done, err = d.boolean()
		case keyEnds:
			d.ends = slab(d.ends, len(d.data), 128)
			err = d.parseEnds()
			d.batch.Ends = d.ends
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return err
}

func (d *BatchDecoder) parseEvents() error {
	more, err := d.open('[', ']', "an array of events")
	for more && err == nil {
		var ev Event
		if ev, err = d.parseEvent(); err != nil {
			return err
		}
		d.events = append(d.events, ev)
		more, err = d.more(']')
	}
	return err
}

func (d *BatchDecoder) parseEvent() (Event, error) {
	var ev Event
	var seen uint
	at := d.pos
	more, err := d.open('{', '}', "an event object")
	for more && err == nil {
		var key uint
		if key, err = d.member(keyStart|keySnapshot, &seen); err != nil {
			return ev, err
		}
		switch key {
		case keyStart:
			d.starts = slab(d.starts, len(d.data), 128)
			var st StartEvent
			if st.Pipeline, st.Time, err = d.parsePipeTime("a start object"); err != nil {
				return ev, err
			}
			d.starts = append(d.starts, st)
			ev.Start = &d.starts[len(d.starts)-1]
		case keySnapshot:
			d.snaps = slab(d.snaps, len(d.data), 64)
			var sn SnapshotEvent
			if sn, err = d.parseSnapshot(); err != nil {
				return ev, err
			}
			d.snaps = append(d.snaps, sn)
			ev.Snapshot = &d.snaps[len(d.snaps)-1]
		}
		more, err = d.more('}')
	}
	if err == nil && (ev.Start == nil) == (ev.Snapshot == nil) {
		d.pos = at
		err = d.errorf("event %d must set exactly one of start/snapshot", len(d.events))
	}
	return ev, err
}

// parsePipeTime parses the shape StartEvent and PipeEnd share.
func (d *BatchDecoder) parsePipeTime(what string) (pipe int, time float64, err error) {
	var seen uint
	more, err := d.open('{', '}', what)
	for more && err == nil {
		var key uint
		if key, err = d.member(keyPipeline|keyTime, &seen); err != nil {
			return 0, 0, err
		}
		if key == keyPipeline {
			pipe, err = d.index()
		} else {
			time, err = d.float()
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return pipe, time, err
}

func (d *BatchDecoder) parseSnapshot() (SnapshotEvent, error) {
	var sn SnapshotEvent
	var seen uint
	more, err := d.open('{', '}', "a snapshot object")
	for more && err == nil {
		var key uint
		if key, err = d.member(keyTime|keyDeltas, &seen); err != nil {
			return sn, err
		}
		if key == keyTime {
			sn.Time, err = d.float()
		} else {
			d.deltas = slab(d.deltas, len(d.data), 20)
			from := len(d.deltas)
			err = d.parseDeltas()
			sn.Deltas = d.deltas[from:]
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return sn, err
}

func (d *BatchDecoder) parseDeltas() error {
	more, err := d.open('[', ']', "an array of deltas")
	for more && err == nil {
		var dl Delta
		if dl, err = d.parseDelta(); err != nil {
			return err
		}
		d.deltas = append(d.deltas, dl)
		more, err = d.more(']')
	}
	return err
}

func (d *BatchDecoder) parseDelta() (Delta, error) {
	var dl Delta
	var seen uint
	more, err := d.open('{', '}', "a delta object")
	for more && err == nil {
		var key uint
		if key, err = d.member(keyNode|keyK|keyR|keyW, &seen); err != nil {
			return dl, err
		}
		switch key {
		case keyNode:
			dl.Node, err = d.index()
		case keyK:
			dl.K, err = d.integer()
		case keyR:
			dl.R, err = d.integer()
		case keyW:
			dl.W, err = d.integer()
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return dl, err
}

func (d *BatchDecoder) parseEnds() error {
	more, err := d.open('[', ']', "an array of pipeline ends")
	for more && err == nil {
		var e PipeEnd
		if e.Pipeline, e.Time, err = d.parsePipeTime("a pipeline end object"); err != nil {
			return err
		}
		d.ends = append(d.ends, e)
		more, err = d.more(']')
	}
	return err
}
