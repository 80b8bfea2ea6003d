package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Peer protocol paths, mounted by Handler and dialed by HTTPTransport. The
// version segment names the codec (wire.go): a peer that speaks another
// version answers 404, which the requester treats as a peer miss, instead
// of misreading the body.
const (
	lookupPath     = "/fleet/v2/lookup"
	propagatePath  = "/fleet/v2/propagate"
	membershipPath = "/fleet/v2/membership"
	handoffPath    = "/fleet/v2/handoff"
)

const contentType = "application/octet-stream"

// maxBody bounds the peer message read from one request or reply body. A
// handoff batch is the largest message: SnapshotLimit specs of a few KB.
// Bodies that declare at most exactBody bytes are read in one allocation
// of that size; larger ones grow as their bytes arrive, so a declared
// length alone cannot make a node allocate much.
const (
	maxBody   = 64 << 20
	exactBody = 64 << 10
)

// HTTPTransport dials peers over HTTP: a peer name is a host:port and the
// protocol is POST of wire.go's binary messages on the /fleet/v2/* paths
// that Handler mounts.
type HTTPTransport struct {
	// Client, when nil, uses a private client with sane timeouts.
	Client *http.Client
	// Scheme defaults to "http".
	Scheme string
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (t *HTTPTransport) url(peer, path string) string {
	scheme := t.Scheme
	if scheme == "" {
		scheme = "http"
	}
	return scheme + "://" + peer + path
}

// post sends msg to the peer and decodes its reply into out.
func (t *HTTPTransport) post(ctx context.Context, peer, path string, msg, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url(peer, path), bytes.NewReader(marshal(msg)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("peer returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return err
	}
	return unmarshal(data, out)
}

// readBody reads a whole message body of at most maxBody bytes.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	if declared >= 0 && declared <= exactBody {
		data := make([]byte, declared)
		_, err := io.ReadFull(r, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(r, maxBody+1))
	if err == nil && len(data) > maxBody {
		err = fmt.Errorf("fleet: peer message over %d bytes", maxBody)
	}
	return data, err
}

// Lookup implements Transport.
func (t *HTTPTransport) Lookup(ctx context.Context, peer string, req *LookupRequest) (*LookupReply, error) {
	var rep LookupReply
	if err := t.post(ctx, peer, lookupPath, req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Propagate implements Transport.
func (t *HTTPTransport) Propagate(ctx context.Context, peer string, gen uint64) (uint64, error) {
	var rep propagateMsg
	if err := t.post(ctx, peer, propagatePath, &propagateMsg{Generation: gen}, &rep); err != nil {
		return 0, err
	}
	return rep.Generation, nil
}

// Membership implements Transport.
func (t *HTTPTransport) Membership(ctx context.Context, peer string, msg *MembershipMsg) (*MembershipMsg, error) {
	var rep MembershipMsg
	if err := t.post(ctx, peer, membershipPath, msg, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Handoff implements Transport.
func (t *HTTPTransport) Handoff(ctx context.Context, peer string, req *HandoffRequest) (int, error) {
	var rep HandoffReply
	if err := t.post(ctx, peer, handoffPath, req, &rep); err != nil {
		return 0, err
	}
	return rep.Accepted, nil
}

// Handler returns the peer-facing HTTP handler for the node: the server
// side of HTTPTransport. Mount it on the same mux as the client API. A
// body that does not decode as the path's message gets a 400.
func Handler(n *Node) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(lookupPath, func(w http.ResponseWriter, r *http.Request) {
		var req LookupRequest
		if !readMsg(w, r, &req) {
			return
		}
		rep, err := n.HandleLookup(r.Context(), &req)
		if err != nil {
			// The requester treats any lookup failure as a peer miss and
			// falls back locally; the status code is diagnostic only.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeMsg(w, rep)
	})
	mux.HandleFunc(propagatePath, func(w http.ResponseWriter, r *http.Request) {
		var msg propagateMsg
		if !readMsg(w, r, &msg) {
			return
		}
		writeMsg(w, &propagateMsg{Generation: n.HandlePropagate(msg.Generation)})
	})
	mux.HandleFunc(membershipPath, func(w http.ResponseWriter, r *http.Request) {
		var msg MembershipMsg
		if !readMsg(w, r, &msg) {
			return
		}
		writeMsg(w, n.HandleMembership(&msg))
	})
	mux.HandleFunc(handoffPath, func(w http.ResponseWriter, r *http.Request) {
		var req HandoffRequest
		if !readMsg(w, r, &req) {
			return
		}
		writeMsg(w, &HandoffReply{Accepted: n.HandleHandoff(r.Context(), &req)})
	})
	return mux
}

// readMsg decodes a POSTed peer message into msg, answering the request
// itself and reporting false when it cannot.
func readMsg(w http.ResponseWriter, r *http.Request, msg any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	data, err := readBody(r.Body, r.ContentLength)
	if err == nil {
		err = unmarshal(data, msg)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeMsg(w http.ResponseWriter, msg any) {
	data := marshal(msg)
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}
