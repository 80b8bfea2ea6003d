// Package wire is the binary codec under the serving layer's request keys
// and the fleet's peer messages and snapshots. A value is its fields in
// order:
//
//   - unsigned integers (and ints, as their two's-complement bits) as
//     minimal uvarints;
//   - bools as one byte, 0 or 1;
//   - strings as a uvarint length and the bytes;
//   - float64s as the 8 little-endian bytes of math.Float64bits, so every
//     distribution and selectivity travels bit for bit;
//   - lists as a uvarint count and the elements; an empty list and a nil
//     one encode alike and decode as nil.
//
// Decoding is strict, so bytes that decode re-encode to the same bytes: an
// unexpected tag, a non-minimal uvarint, a bool other than 0 or 1, or
// trailing bytes reject them. Every count is checked against the bytes
// still unread before anything is allocated, so a hostile length costs
// nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

var (
	ErrTag      = errors.New("wire: unknown or unexpected message tag")
	ErrShort    = errors.New("wire: body ends mid-field")
	ErrVarint   = errors.New("wire: malformed uvarint")
	ErrBool     = errors.New("wire: bool byte is neither 0 nor 1")
	ErrLength   = errors.New("wire: length exceeds the bytes left in the body")
	ErrTrailing = errors.New("wire: trailing bytes after the message")
)

// The encoders append one field to b and return the extended slice, like
// the strconv and binary Append functions, so a caller can encode into a
// buffer on its own stack.

func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func AppendF64s(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = AppendF64(b, f)
	}
	return b
}

func AppendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendStr(b, s)
	}
	return b
}

// Decoder reads one value. The first error sticks: later reads return zero
// values, and Finish reports it once at the end. Strings and lists are
// copied out, so the input may be reused once decoding is done.
type Decoder struct {
	rest []byte
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) Decoder { return Decoder{rest: data} }

// NewStringDecoder returns a decoder over the bytes of s, without copying
// them: a Decoder never writes to its input, and copies out what it keeps.
func NewStringDecoder(s string) Decoder {
	return Decoder{rest: unsafe.Slice(unsafe.StringData(s), len(s))}
}

// Fail records err unless an earlier error is already recorded, and stops
// decoding.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.rest = nil
}

// Finish reports the first error, or ErrTrailing when bytes are left over.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.rest) > 0 {
		d.err = ErrTrailing
	}
	return d.err
}

// Tag reads a message's leading tag byte and fails unless it is want.
func (d *Decoder) Tag(want byte) {
	if d.err != nil {
		return
	}
	if len(d.rest) == 0 {
		d.Fail(ErrShort)
		return
	}
	if d.rest[0] != want {
		d.Fail(ErrTag)
		return
	}
	d.rest = d.rest[1:]
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.rest)
	switch {
	case n == 0:
		d.Fail(ErrShort)
		return 0
	case n < 0 || (n > 1 && d.rest[n-1] == 0): // overflow, or not minimal
		d.Fail(ErrVarint)
		return 0
	}
	d.rest = d.rest[n:]
	return v
}

func (d *Decoder) Int() int { return int(d.Uvarint()) }

func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.rest) == 0 {
		d.Fail(ErrShort)
		return false
	}
	b := d.rest[0]
	if b > 1 {
		d.Fail(ErrBool)
		return false
	}
	d.rest = d.rest[1:]
	return b == 1
}

// Count reads a length prefix whose elements take at least unit bytes
// each, and rejects it unless that many bytes are still unread. The
// comparison divides rather than multiplies, so it cannot overflow.
func (d *Decoder) Count(unit int) int {
	n := d.Uvarint()
	if n > uint64(len(d.rest)/unit) {
		d.Fail(ErrLength)
		return 0
	}
	return int(n)
}

func (d *Decoder) Str() string {
	n := d.Count(1)
	if n == 0 {
		return ""
	}
	s := string(d.rest[:n])
	d.rest = d.rest[n:]
	return s
}

func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.rest) < 8 {
		d.Fail(ErrShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.rest))
	d.rest = d.rest[8:]
	return f
}

func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
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

// Strs reads a string list. Each string takes at least its one-byte
// length prefix, so a list of n of them needs n unread bytes.
func (d *Decoder) Strs() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}
