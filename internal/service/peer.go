package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
)

// This file is the one path every node-to-node request takes: replication
// pushes, proxy batches and both anti-entropy fetches. Membership probes
// keep an http.Client over the same transport.
//
// Requests go straight to the cluster's RoundTripper. http.Client buys the
// cluster nothing — peers never redirect, and there is no cookie jar and
// no client timeout (a context bounds every call) — and it clones every
// request's header. A 3xx answer is therefore a failed call, never a
// followed redirect.

// peerClient sends node-to-node requests.
type peerClient struct {
	rt http.RoundTripper

	mu   sync.RWMutex
	urls map[peerRoute]*url.URL
}

// peerRoute is one route on one peer: the peer's base URL and a path.
type peerRoute struct{ base, path string }

func newPeerClient(rt http.RoundTripper) *peerClient {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &peerClient{rt: rt, urls: make(map[peerRoute]*url.URL)}
}

// Fixed header values. A RoundTripper must not modify its request, so
// requests share them; an empty User-Agent keeps the transport from
// sending its default one. A preset Accept-Encoding keeps it from adding
// gzip, which costs a header map per request; peers never compress.
var (
	noUserAgent    = []string{""}
	acceptIdentity = []string{"identity"}
	// pushHeader is the whole header of a /v1/replicate push, getHeader
	// that of an anti-entropy fetch.
	pushHeader = http.Header{"Content-Type": {"application/json"}, "User-Agent": noUserAgent, "Accept-Encoding": acceptIdentity}
	getHeader  = http.Header{"User-Agent": noUserAgent, "Accept-Encoding": acceptIdentity}
)

// url is base+path, parsed once per peer and route. The result is shared:
// copy it before changing it.
func (p *peerClient) url(base, path string) (*url.URL, error) {
	key := peerRoute{base, path}
	p.mu.RLock()
	u := p.urls[key]
	p.mu.RUnlock()
	if u != nil {
		return u, nil
	}
	u, err := url.Parse(base + path)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.urls[key] = u
	p.mu.Unlock()
	return u, nil
}

// send sends one request and returns its response when the status is 2xx;
// the caller reads and closes its body. Any other status closes the body
// and comes back as an error. A body is sent with its Content-Length,
// never chunked.
func (p *peerClient) send(ctx context.Context, method string, u *url.URL, hdr http.Header, body []byte) (*http.Response, error) {
	req := (&http.Request{Method: method, URL: u, Host: u.Host, Header: hdr,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}).WithContext(ctx)
	if len(body) > 0 {
		req.ContentLength = int64(len(body))
		// GetBody lets the transport resend a request it could not write
		// on a reused connection.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := p.rt.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, u.Redacted(), err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, u.Redacted(), resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// push POSTs one JSON body to base+path and drains the acknowledgement,
// if it has a body.
func (p *peerClient) push(ctx context.Context, base, path string, body []byte) error {
	u, err := p.url(base, path)
	if err != nil {
		return err
	}
	resp, err := p.send(ctx, http.MethodPost, u, pushHeader, body)
	if err != nil {
		return err
	}
	// The status already says the body landed; draining only lets the
	// transport reuse the connection. A 204 has no body to drain; an
	// older node answers 200 with a short JSON one.
	if resp.Body != http.NoBody {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	resp.Body.Close()
	return nil
}

// get GETs base+path?query and returns the whole 2xx body, failing past
// limit bytes.
func (p *peerClient) get(ctx context.Context, base, path, query string, limit int64) ([]byte, error) {
	u, err := p.url(base, path)
	if err != nil {
		return nil, err
	}
	if query != "" {
		q := *u
		q.RawQuery = query
		u = &q
	}
	resp, err := p.send(ctx, http.MethodGet, u, getHeader, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(body)) > limit {
		err = fmt.Errorf("GET %s: body exceeds %d bytes", u.Redacted(), limit)
	}
	return body, err
}
