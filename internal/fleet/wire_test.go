package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Awkward float64s: negative zero, the smallest subnormal, and a NaN with
// a payload.
var (
	negZero   = math.Copysign(0, -1)
	subnormal = math.Float64frombits(1)
	nanBits   = math.Float64frombits(0x7ff8_0000_dead_beef)
)

// wireSamples returns one populated value of every peer message and the
// snapshot, built where possible from real requests and responses: the
// round-trip test's inputs and the fuzz target's seeds.
func wireSamples(t testing.TB) []any {
	t.Helper()
	cat, _, _ := workload.Example11()
	svc := serve.New(cat, serve.Config{})
	bound, key := chainedExample(t, svc)
	resp, err := svc.Optimize(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	reply := &LookupReply{Generation: math.MaxUint64, Epoch: 3, Node: "n2", QueueDepth: 17, Resp: ToWire(resp)}
	reply.Resp.Decision.TierGap = subnormal
	reply.Resp.Decision.StdDev = negZero
	reply.Resp.Decision.P95 = nanBits
	return []any{
		&LookupRequest{Key: key, Generation: 1 << 40, Epoch: 2, From: "n1", Hedge: true},
		reply,
		&propagateMsg{Generation: 300},
		&MembershipMsg{Epoch: 9, Peers: []string{"127.0.0.1:7081", "", "nœud"}, From: "127.0.0.1:7081"},
		&HandoffRequest{From: "n3", Epoch: 4, Keys: []string{key, "SELECT *\x00", ""}},
		&HandoffReply{Accepted: 2},
		&snapshotMsg{Version: snapshotVersion, Fingerprint: "00ff", Generation: 7, Epoch: 1, Peers: []string{"n1", "n2"}, SavedBy: "n1", Keys: []string{"", key}},
	}
}

// newWireMsgs returns one zero value of every peer message type.
func newWireMsgs() []any {
	return []any{new(LookupRequest), new(LookupReply), new(propagateMsg), new(MembershipMsg), new(HandoffRequest), new(HandoffReply), new(snapshotMsg)}
}

// sameBits compares two values field by field, floats by their bits. A
// nil and an empty slice compare equal: the codec does not tell them apart.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// TestWireRoundTripsEveryMessage encodes each peer message and decodes it
// into a fresh value: every field, floats to the bit, must come back.
func TestWireRoundTripsEveryMessage(t *testing.T) {
	for _, m := range wireSamples(t) {
		data := marshal(m)
		got := reflect.New(reflect.TypeOf(m).Elem()).Interface()
		if err := unmarshal(data, got); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !sameBits(reflect.ValueOf(m), reflect.ValueOf(got)) {
			t.Errorf("%T did not round-trip:\n  sent %+v\n  got  %+v", m, m, got)
		}
		if again := marshal(got); !bytes.Equal(again, data) {
			t.Errorf("%T re-encodes to different bytes", m)
		}
	}
}

// TestWireEmptyListDecodesNil: an empty optional list and a nil one encode
// alike, and both decode as nil, which every receiver already treats as
// "absent".
func TestWireEmptyListDecodesNil(t *testing.T) {
	empty := &HandoffRequest{Keys: []string{}}
	none := &HandoffRequest{}
	if !bytes.Equal(marshal(empty), marshal(none)) {
		t.Fatal("an empty list and a nil list encode differently")
	}
	var got HandoffRequest
	if err := unmarshal(marshal(empty), &got); err != nil {
		t.Fatal(err)
	}
	if got.Keys != nil {
		t.Errorf("empty list decoded as %#v, want nil", got.Keys)
	}
}

// chainedExample canonicalizes the example request under a Markov memory
// chain, returning the bound request and its key.
func chainedExample(t testing.TB, svc *serve.Service) (serve.Request, string) {
	t.Helper()
	req := exampleRequest()
	chain, err := stats.NewChain([]float64{700, 2000}, [][]float64{{0.9, 0.1}, {0.25, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	req.Env.Chain = chain
	bound, key, err := svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	return bound, key
}

// TestWireChainRoundTripsToServe carries a Markov memory chain across the
// wire and rebuilds it: the rebuilt request keeps the sender's key.
func TestWireChainRoundTripsToServe(t *testing.T) {
	lr := wireSamples(t)[0].(*LookupRequest)
	var got LookupRequest
	if err := unmarshal(marshal(lr), &got); err != nil {
		t.Fatal(err)
	}
	sreq, err := serve.DecodeKey(got.Key)
	if err != nil {
		t.Fatal(err)
	}
	if sreq.Env.Chain == nil || sreq.Env.Chain.NumStates() != 2 {
		t.Fatalf("chain lost on the wire: %+v", sreq.Env)
	}
	cat, _, _ := workload.Example11()
	svc := serve.New(cat, serve.Config{})
	_, sent := chainedExample(t, svc)
	_, key, err := svc.Canonicalize(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if key != sent {
		t.Fatalf("request key changed across the wire:\n  sent     %q\n  received %q", sent, key)
	}
}

// TestWireRejectsHostileLengths: a count or length larger than the body
// is rejected before anything is allocated for it. The request key's own
// lists are FuzzSpec's seeds (serve).
func TestWireRejectsHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	pad := make([]byte, 64)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name string
		data []byte
		msg  any
	}{
		{"key of 2^62", cat([]byte{tagLookupRequest}, huge, pad), new(LookupRequest)},
		{"string past the end", cat([]byte{tagLookupRequest}, binary.AppendUvarint(nil, 1000), []byte("abc")), new(LookupRequest)},
		{"peer list of 2^62", cat([]byte{tagMembership, 1}, huge, pad), new(MembershipMsg)},
		{"handoff entries of 2^62", cat([]byte{tagHandoffRequest, 0, 1}, huge, pad), new(HandoffRequest)},
		{"plan past the end", cat([]byte{tagLookupReply, 0, 0, 0, 0, 0}, make([]byte, 24), []byte{0, 0, 0, 0, 0}, make([]byte, 8), huge), new(LookupReply)},
		// version, fingerprint, generation, epoch, peers, saved-by, then keys.
		{"snapshot keys of 2^62", cat([]byte{tagSnapshot, snapshotVersion, 0, 0, 0, 0, 0}, huge, pad), new(snapshotMsg)},
	} {
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = unmarshal(tc.data, tc.msg) })
		if err != wire.ErrLength {
			t.Errorf("%s: err = %v, want %v", tc.name, err, wire.ErrLength)
		}
		if allocs != 0 {
			t.Errorf("%s: rejecting allocated %v times, want 0", tc.name, allocs)
		}
	}
}

// TestWireRejectsMalformed: the strict decoding rules behind the
// re-encode property.
func TestWireRejectsMalformed(t *testing.T) {
	good := marshal(&MembershipMsg{Epoch: 1, Peers: []string{"a"}, From: "a"})
	empty := marshal(&LookupRequest{})
	lookupUpToHedge := empty[:len(empty)-1] // Hedge is the last field
	for _, tc := range []struct {
		name string
		data []byte
		msg  any
		want error
	}{
		{"empty body", nil, new(MembershipMsg), wire.ErrShort},
		{"unknown tag", []byte{0xee, 0}, new(MembershipMsg), wire.ErrTag},
		{"another message's tag", good, new(LookupRequest), wire.ErrTag},
		{"JSON body", []byte(`{"epoch":1}`), new(MembershipMsg), wire.ErrTag},
		{"trailing byte", append(append([]byte{}, good...), 0), new(MembershipMsg), wire.ErrTrailing},
		{"truncated", good[:len(good)-1], new(MembershipMsg), wire.ErrLength},
		{"non-minimal uvarint", []byte{tagPropagate, 0x81, 0x00}, new(propagateMsg), wire.ErrVarint},
		{"overlong uvarint", append([]byte{tagPropagate}, bytes.Repeat([]byte{0xff}, 11)...), new(propagateMsg), wire.ErrVarint},
		{"bool of 2", append(lookupUpToHedge, 2), new(LookupRequest), wire.ErrBool},
		{"float cut short", []byte{tagLookupReply, 0, 0, 0, 0, 0, 1, 2}, new(LookupReply), wire.ErrShort},
		{"snapshot version 1", []byte{tagSnapshot, 1}, new(snapshotMsg), ErrSnapshotVersion},
	} {
		if err := unmarshal(tc.data, tc.msg); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzPeerWire decodes arbitrary bytes as every peer message. Decoding
// must not panic, must allocate at most a small multiple of the input,
// and any body that decodes must re-encode to exactly its own bytes.
func FuzzPeerWire(f *testing.F) {
	for _, m := range wireSamples(f) {
		f.Add(marshal(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := newWireMsgs()
		for _, m := range msgs {
			if err := unmarshal(data, m); err != nil {
				continue
			}
			if again := marshal(m); !bytes.Equal(again, data) {
				t.Fatalf("%T: decoded body re-encodes differently:\n  in  %x\n  out %x", m, data, again)
			}
		}
		// Decoding is deterministic, so the least of three measurements
		// leaves out what the fuzzing process's other goroutines allocate.
		// The widest element per input byte is a string header: 16 bytes
		// for a one-byte length.
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, m := range msgs {
				unmarshal(data, m)
			}
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(32*len(data) + 1024); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
	})
}
