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
	"repro/internal/workload"
)

// Awkward float64s: negative zero, the smallest subnormal, and a NaN with
// a payload.
var (
	negZero   = math.Copysign(0, -1)
	subnormal = math.Float64frombits(1)
	nanBits   = math.Float64frombits(0x7ff8_0000_dead_beef)
)

// wireSamples returns one populated value of every peer message, built
// where possible from real requests and responses: the round-trip test's
// inputs and the fuzz target's seeds.
func wireSamples(t testing.TB) []any {
	t.Helper()
	cat, _, _ := workload.Example11()
	svc := serve.New(cat, serve.Config{})
	bound, key := chainedExample(t, svc)
	spec, err := newWarmSpec(key, bound)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Optimize(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	reply := &LookupReply{Generation: math.MaxUint64, Epoch: 3, Node: "n2", QueueDepth: 17, Resp: ToWire(resp)}
	reply.Resp.Decision.TierGap = subnormal
	reply.Resp.Decision.StdDev = negZero
	reply.Resp.Decision.P95 = nanBits
	awkward := WarmSpec{
		SQL:      "SELECT *\x00",
		Strategy: -1,
		JoinSels: []float64{negZero, subnormal, nanBits, 0.1, math.Inf(-1)},
		SelSels:  []float64{},
		MemVals:  []float64{math.SmallestNonzeroFloat64, math.MaxFloat64},
	}
	return []any{
		&LookupRequest{Spec: spec, Generation: 1 << 40, Epoch: 2, From: "n1", Hedge: true},
		reply,
		&propagateMsg{Generation: 300},
		&MembershipMsg{Epoch: 9, Peers: []string{"127.0.0.1:7081", "", "nœud"}, From: "127.0.0.1:7081"},
		&HandoffRequest{From: "n3", Epoch: 4, Entries: []WarmSpec{spec, awkward, {}}},
		&HandoffReply{Accepted: 2},
	}
}

// newWireMsgs returns one zero value of every peer message type.
func newWireMsgs() []any {
	return []any{new(LookupRequest), new(LookupReply), new(propagateMsg), new(MembershipMsg), new(HandoffRequest), new(HandoffReply)}
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
	empty := &LookupRequest{Spec: WarmSpec{JoinSels: []float64{}, ChainRows: [][]float64{}}}
	none := &LookupRequest{}
	if !bytes.Equal(marshal(empty), marshal(none)) {
		t.Fatal("an empty list and a nil list encode differently")
	}
	var got LookupRequest
	if err := unmarshal(marshal(empty), &got); err != nil {
		t.Fatal(err)
	}
	if got.Spec.JoinSels != nil || got.Spec.ChainRows != nil {
		t.Errorf("empty lists decoded as %#v / %#v, want nil", got.Spec.JoinSels, got.Spec.ChainRows)
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
	if got.Spec.ChainStates == nil || len(got.Spec.ChainRows) != 2 {
		t.Fatalf("chain lost on the wire: %+v", got.Spec)
	}
	sreq, err := got.Spec.toServe()
	if err != nil {
		t.Fatal(err)
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
// is rejected before anything is allocated for it.
func TestWireRejectsHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	pad := make([]byte, 64)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name string
		data []byte
		msg  any
	}{
		// SQL "", strategy 0, then a 2^62-element JoinSels.
		{"float list of 2^62", cat([]byte{tagLookupRequest, 0, 0}, huge, pad), new(LookupRequest)},
		{"string past the end", cat([]byte{tagLookupRequest}, binary.AppendUvarint(nil, 1000), []byte("abc")), new(LookupRequest)},
		{"peer list of 2^62", cat([]byte{tagMembership, 1}, huge, pad), new(MembershipMsg)},
		{"handoff entries of 2^62", cat([]byte{tagHandoffRequest, 0, 1}, huge, pad), new(HandoffRequest)},
		{"chain rows of 2^62", cat([]byte{tagLookupRequest, 0, 0, 0, 0, 0, 0, 0}, huge, pad), new(LookupRequest)},
		{"plan past the end", cat([]byte{tagLookupReply, 0, 0, 0, 0, 0}, make([]byte, 24), []byte{0, 0, 0, 0, 0}, make([]byte, 8), huge), new(LookupReply)},
	} {
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = unmarshal(tc.data, tc.msg) })
		if err != errWireLength {
			t.Errorf("%s: err = %v, want %v", tc.name, err, errWireLength)
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
	for _, tc := range []struct {
		name string
		data []byte
		msg  any
		want error
	}{
		{"empty body", nil, new(MembershipMsg), errWireShort},
		{"unknown tag", []byte{0xee, 0}, new(MembershipMsg), errWireTag},
		{"another message's tag", good, new(LookupRequest), errWireTag},
		{"JSON body", []byte(`{"epoch":1}`), new(MembershipMsg), errWireTag},
		{"trailing byte", append(append([]byte{}, good...), 0), new(MembershipMsg), errWireTrailing},
		{"truncated", good[:len(good)-1], new(MembershipMsg), errWireLength},
		{"non-minimal uvarint", []byte{tagPropagate, 0x81, 0x00}, new(propagateMsg), errWireVarint},
		{"overlong uvarint", append([]byte{tagPropagate}, bytes.Repeat([]byte{0xff}, 11)...), new(propagateMsg), errWireVarint},
		{"bool of 2", append(marshal(&LookupRequest{})[:12], 2), new(LookupRequest), errWireBool},
		{"float cut short", []byte{tagLookupReply, 0, 0, 0, 0, 0, 1, 2}, new(LookupReply), errWireShort},
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
		// The widest element per input byte is a [][]float64 row header:
		// 24 bytes for a one-byte length.
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
