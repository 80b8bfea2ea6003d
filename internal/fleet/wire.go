package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The peer protocol's one codec. A message is its tag byte followed by its
// fields in declaration order:
//
//   - unsigned integers (and ints, as their two's-complement bits) as
//     minimal uvarints;
//   - bools as one byte, 0 or 1;
//   - strings as a uvarint length and the bytes;
//   - float64s as the 8 little-endian bytes of math.Float64bits, so every
//     distribution and selectivity arrives bit for bit;
//   - lists as a uvarint count and the elements; an empty list and a nil
//     one encode alike and decode as nil.
//
// Decoding is strict, so a body that decodes re-encodes to the same bytes:
// an unknown tag, a non-minimal uvarint, a bool other than 0 or 1, or
// trailing bytes reject it. Every count is checked against the bytes still
// unread before anything is allocated, so a hostile length costs nothing.
const (
	tagLookupRequest byte = iota + 1
	tagLookupReply
	tagPropagate
	tagMembership
	tagHandoffRequest
	tagHandoffReply
)

var (
	errWireTag      = errors.New("fleet: wire: unknown or unexpected message tag")
	errWireShort    = errors.New("fleet: wire: body ends mid-field")
	errWireVarint   = errors.New("fleet: wire: malformed uvarint")
	errWireBool     = errors.New("fleet: wire: bool byte is neither 0 nor 1")
	errWireLength   = errors.New("fleet: wire: length exceeds the bytes left in the body")
	errWireTrailing = errors.New("fleet: wire: trailing bytes after the message")
)

// propagateMsg is a generation bump and its reply: the generation the
// sender has reached, or the receiver's generation after adopting it.
type propagateMsg struct {
	Generation uint64
}

// marshal encodes one peer message behind its tag. m must be a pointer to
// one of the peer message types. The first allocation holds a typical
// lookup or reply, whose SQL or plan text runs to several hundred bytes.
func marshal(m any) []byte {
	e := encoder{b: make([]byte, 0, 1024)}
	switch m := m.(type) {
	case *LookupRequest:
		e.b = append(e.b, tagLookupRequest)
		e.lookupRequest(m)
	case *LookupReply:
		e.b = append(e.b, tagLookupReply)
		e.lookupReply(m)
	case *propagateMsg:
		e.b = append(e.b, tagPropagate)
		e.uvarint(m.Generation)
	case *MembershipMsg:
		e.b = append(e.b, tagMembership)
		e.membership(m)
	case *HandoffRequest:
		e.b = append(e.b, tagHandoffRequest)
		e.handoffRequest(m)
	case *HandoffReply:
		e.b = append(e.b, tagHandoffReply)
		e.int(m.Accepted)
	default:
		panic(fmt.Sprintf("fleet: no wire encoding for %T", m))
	}
	return e.b
}

// unmarshal decodes data into m, which must be a pointer to the peer
// message type data's tag names. Strings and lists are copied out, so data
// may be reused once it returns.
func unmarshal(data []byte, m any) error {
	if len(data) == 0 {
		return errWireShort
	}
	d := decoder{rest: data[1:]}
	switch m := m.(type) {
	case *LookupRequest:
		d.expect(data[0], tagLookupRequest)
		d.lookupRequest(m)
	case *LookupReply:
		d.expect(data[0], tagLookupReply)
		d.lookupReply(m)
	case *propagateMsg:
		d.expect(data[0], tagPropagate)
		m.Generation = d.uvarint()
	case *MembershipMsg:
		d.expect(data[0], tagMembership)
		d.membership(m)
	case *HandoffRequest:
		d.expect(data[0], tagHandoffRequest)
		d.handoffRequest(m)
	case *HandoffReply:
		d.expect(data[0], tagHandoffReply)
		m.Accepted = d.int()
	default:
		panic(fmt.Sprintf("fleet: no wire decoding for %T", m))
	}
	if d.err == nil && len(d.rest) > 0 {
		d.err = errWireTrailing
	}
	return d.err
}

type encoder struct{ b []byte }

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) int(v int)        { e.uvarint(uint64(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) f64(f float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f)) }

func (e *encoder) f64s(fs []float64) {
	e.uvarint(uint64(len(fs)))
	for _, f := range fs {
		e.f64(f)
	}
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) spec(s *WarmSpec) {
	e.str(s.SQL)
	e.int(s.Strategy)
	e.f64s(s.JoinSels)
	e.f64s(s.SelSels)
	e.f64s(s.MemVals)
	e.f64s(s.MemProbs)
	e.f64s(s.ChainStates)
	e.uvarint(uint64(len(s.ChainRows)))
	for _, row := range s.ChainRows {
		e.f64s(row)
	}
}

func (e *encoder) lookupRequest(r *LookupRequest) {
	e.spec(&r.Spec)
	e.uvarint(r.Generation)
	e.uvarint(r.Epoch)
	e.str(r.From)
	e.bool(r.Hedge)
}

func (e *encoder) lookupReply(r *LookupReply) {
	e.uvarint(r.Generation)
	e.uvarint(r.Epoch)
	e.str(r.Node)
	e.int(r.QueueDepth)
	d := &r.Resp.Decision
	e.str(d.Strategy)
	e.f64(d.ExpectedCost)
	e.f64(d.StdDev)
	e.f64(d.P95)
	e.bool(d.Degraded)
	e.str(d.DegradeReason)
	e.str(d.DegradeRung)
	e.str(d.Tier)
	e.str(d.TierReason)
	e.f64(d.TierGap)
	e.str(d.Plan)
	e.bool(r.Resp.Cached)
	e.bool(r.Resp.Coalesced)
	e.bool(r.Resp.Pinned)
	e.str(r.Resp.Pressure)
}

func (e *encoder) membership(m *MembershipMsg) {
	e.uvarint(m.Epoch)
	e.strs(m.Peers)
	e.str(m.From)
}

func (e *encoder) handoffRequest(r *HandoffRequest) {
	e.str(r.From)
	e.uvarint(r.Epoch)
	e.uvarint(uint64(len(r.Entries)))
	for i := range r.Entries {
		e.spec(&r.Entries[i])
	}
}

// decoder reads one message. The first error sticks: later reads return
// zero values, and the caller reports err once at the end.
type decoder struct {
	rest []byte
	err  error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.rest = nil
}

func (d *decoder) expect(got, want byte) {
	if got != want {
		d.fail(errWireTag)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.rest)
	switch {
	case n == 0:
		d.fail(errWireShort)
		return 0
	case n < 0 || (n > 1 && d.rest[n-1] == 0): // overflow, or not minimal
		d.fail(errWireVarint)
		return 0
	}
	d.rest = d.rest[n:]
	return v
}

func (d *decoder) int() int { return int(d.uvarint()) }

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.rest) == 0 {
		d.fail(errWireShort)
		return false
	}
	b := d.rest[0]
	if b > 1 {
		d.fail(errWireBool)
		return false
	}
	d.rest = d.rest[1:]
	return b == 1
}

// count reads a length prefix whose elements take at least unit bytes
// each, and rejects it unless that many bytes are still unread. The
// comparison divides rather than multiplies, so it cannot overflow.
func (d *decoder) count(unit int) int {
	n := d.uvarint()
	if n > uint64(len(d.rest)/unit) {
		d.fail(errWireLength)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	if n == 0 {
		return ""
	}
	s := string(d.rest[:n])
	d.rest = d.rest[n:]
	return s
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.rest) < 8 {
		d.fail(errWireShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.rest))
	d.rest = d.rest[8:]
	return f
}

func (d *decoder) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.rest[8*i:]))
	}
	d.rest = d.rest[8*n:]
	return out
}

// Each string and each row takes at least its one-byte length prefix, so
// a list of n of them needs n unread bytes.
func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// minSpecBytes is the shortest encoded WarmSpec: eight one-byte length
// prefixes or integers.
const minSpecBytes = 8

func (d *decoder) spec(s *WarmSpec) {
	s.SQL = d.str()
	s.Strategy = d.int()
	s.JoinSels = d.f64s()
	s.SelSels = d.f64s()
	s.MemVals = d.f64s()
	s.MemProbs = d.f64s()
	s.ChainStates = d.f64s()
	s.ChainRows = nil
	if n := d.count(1); n > 0 {
		s.ChainRows = make([][]float64, n)
		for i := range s.ChainRows {
			s.ChainRows[i] = d.f64s()
		}
	}
}

func (d *decoder) lookupRequest(r *LookupRequest) {
	d.spec(&r.Spec)
	r.Generation = d.uvarint()
	r.Epoch = d.uvarint()
	r.From = d.str()
	r.Hedge = d.bool()
}

func (d *decoder) lookupReply(r *LookupReply) {
	r.Generation = d.uvarint()
	r.Epoch = d.uvarint()
	r.Node = d.str()
	r.QueueDepth = d.int()
	w := &r.Resp.Decision
	w.Strategy = d.str()
	w.ExpectedCost = d.f64()
	w.StdDev = d.f64()
	w.P95 = d.f64()
	w.Degraded = d.bool()
	w.DegradeReason = d.str()
	w.DegradeRung = d.str()
	w.Tier = d.str()
	w.TierReason = d.str()
	w.TierGap = d.f64()
	w.Plan = d.str()
	r.Resp.Cached = d.bool()
	r.Resp.Coalesced = d.bool()
	r.Resp.Pinned = d.bool()
	r.Resp.Pressure = d.str()
}

func (d *decoder) membership(m *MembershipMsg) {
	m.Epoch = d.uvarint()
	m.Peers = d.strs()
	m.From = d.str()
}

func (d *decoder) handoffRequest(r *HandoffRequest) {
	r.From = d.str()
	r.Epoch = d.uvarint()
	r.Entries = nil
	if n := d.count(minSpecBytes); n > 0 {
		r.Entries = make([]WarmSpec, n)
		for i := range r.Entries {
			d.spec(&r.Entries[i])
		}
	}
}
