package fleet

import (
	"fmt"

	"repro/internal/wire"
)

// The peer protocol and the snapshot file share one codec (package wire).
// A message is its tag byte followed by its fields in declaration order. A
// request key is the serve layer's spec encoding of the request, carried
// as an opaque string: the receiver decodes it with serve.DecodeKey.
const (
	tagLookupRequest byte = iota + 1
	tagLookupReply
	tagPropagate
	tagMembership
	tagHandoffRequest
	tagHandoffReply
	tagSnapshot
)

// propagateMsg is a generation bump and its reply: the generation the
// sender has reached, or the receiver's generation after adopting it.
type propagateMsg struct {
	Generation uint64
}

// marshal encodes one peer message or snapshot behind its tag. m must be a
// pointer to one of those types. The first allocation holds a typical
// lookup or reply, whose key or plan text runs to several hundred bytes.
func marshal(m any) []byte {
	b := make([]byte, 0, 1024)
	switch m := m.(type) {
	case *LookupRequest:
		b = append(b, tagLookupRequest)
		b = wire.AppendStr(b, m.Key)
		b = wire.AppendUvarint(b, m.Generation)
		b = wire.AppendUvarint(b, m.Epoch)
		b = wire.AppendStr(b, m.From)
		b = wire.AppendBool(b, m.Hedge)
	case *LookupReply:
		b = append(b, tagLookupReply)
		b = appendLookupReply(b, m)
	case *propagateMsg:
		b = append(b, tagPropagate)
		b = wire.AppendUvarint(b, m.Generation)
	case *MembershipMsg:
		b = append(b, tagMembership)
		b = wire.AppendUvarint(b, m.Epoch)
		b = wire.AppendStrs(b, m.Peers)
		b = wire.AppendStr(b, m.From)
	case *HandoffRequest:
		b = append(b, tagHandoffRequest)
		b = wire.AppendStr(b, m.From)
		b = wire.AppendUvarint(b, m.Epoch)
		b = wire.AppendStrs(b, m.Keys)
	case *HandoffReply:
		b = append(b, tagHandoffReply)
		b = wire.AppendInt(b, m.Accepted)
	case *snapshotMsg:
		b = append(b, tagSnapshot)
		b = wire.AppendUvarint(b, m.Version)
		b = wire.AppendStr(b, m.Fingerprint)
		b = wire.AppendUvarint(b, m.Generation)
		b = wire.AppendUvarint(b, m.Epoch)
		b = wire.AppendStrs(b, m.Peers)
		b = wire.AppendStr(b, m.SavedBy)
		b = wire.AppendStrs(b, m.Keys)
	default:
		panic(fmt.Sprintf("fleet: no wire encoding for %T", m))
	}
	return b
}

func appendLookupReply(b []byte, r *LookupReply) []byte {
	b = wire.AppendUvarint(b, r.Generation)
	b = wire.AppendUvarint(b, r.Epoch)
	b = wire.AppendStr(b, r.Node)
	b = wire.AppendInt(b, r.QueueDepth)
	d := &r.Resp.Decision
	b = wire.AppendStr(b, d.Strategy)
	b = wire.AppendF64(b, d.ExpectedCost)
	b = wire.AppendF64(b, d.StdDev)
	b = wire.AppendF64(b, d.P95)
	b = wire.AppendBool(b, d.Degraded)
	b = wire.AppendStr(b, d.DegradeReason)
	b = wire.AppendStr(b, d.DegradeRung)
	b = wire.AppendStr(b, d.Tier)
	b = wire.AppendStr(b, d.TierReason)
	b = wire.AppendF64(b, d.TierGap)
	b = wire.AppendStr(b, d.Plan)
	b = wire.AppendBool(b, r.Resp.Cached)
	b = wire.AppendBool(b, r.Resp.Coalesced)
	b = wire.AppendBool(b, r.Resp.Pinned)
	return wire.AppendStr(b, r.Resp.Pressure)
}

// unmarshal decodes data into m, which must be a pointer to the message
// type data's tag names. Strings and lists are copied out, so data may be
// reused once it returns.
func unmarshal(data []byte, m any) error {
	d := wire.NewDecoder(data)
	switch m := m.(type) {
	case *LookupRequest:
		d.Tag(tagLookupRequest)
		m.Key = d.Str()
		m.Generation = d.Uvarint()
		m.Epoch = d.Uvarint()
		m.From = d.Str()
		m.Hedge = d.Bool()
	case *LookupReply:
		d.Tag(tagLookupReply)
		decodeLookupReply(&d, m)
	case *propagateMsg:
		d.Tag(tagPropagate)
		m.Generation = d.Uvarint()
	case *MembershipMsg:
		d.Tag(tagMembership)
		m.Epoch = d.Uvarint()
		m.Peers = d.Strs()
		m.From = d.Str()
	case *HandoffRequest:
		d.Tag(tagHandoffRequest)
		m.From = d.Str()
		m.Epoch = d.Uvarint()
		m.Keys = d.Strs()
	case *HandoffReply:
		d.Tag(tagHandoffReply)
		m.Accepted = d.Int()
	case *snapshotMsg:
		d.Tag(tagSnapshot)
		// The version comes first, so a file of another version is
		// refused before its body is read as this one's.
		if m.Version = d.Uvarint(); m.Version != snapshotVersion {
			d.Fail(ErrSnapshotVersion)
		}
		m.Fingerprint = d.Str()
		m.Generation = d.Uvarint()
		m.Epoch = d.Uvarint()
		m.Peers = d.Strs()
		m.SavedBy = d.Str()
		m.Keys = d.Strs()
	default:
		panic(fmt.Sprintf("fleet: no wire decoding for %T", m))
	}
	return d.Finish()
}

func decodeLookupReply(d *wire.Decoder, r *LookupReply) {
	r.Generation = d.Uvarint()
	r.Epoch = d.Uvarint()
	r.Node = d.Str()
	r.QueueDepth = d.Int()
	w := &r.Resp.Decision
	w.Strategy = d.Str()
	w.ExpectedCost = d.F64()
	w.StdDev = d.F64()
	w.P95 = d.F64()
	w.Degraded = d.Bool()
	w.DegradeReason = d.Str()
	w.DegradeRung = d.Str()
	w.Tier = d.Str()
	w.TierReason = d.Str()
	w.TierGap = d.F64()
	w.Plan = d.Str()
	r.Resp.Cached = d.Bool()
	r.Resp.Coalesced = d.Bool()
	r.Resp.Pinned = d.Bool()
	r.Resp.Pressure = d.Str()
}
