package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dynring/internal/service"
)

// node is one in-process ringsimd: a service.Manager behind
// service.NewHandler on a loopback listener, advertised under a fixed name
// (http://node-a.bench, ...) so consistent-hash placement does not depend
// on which port the kernel hands out.
type node struct {
	name string // "node-a"
	url  string // "http://node-a.bench"
	mgr  *service.Manager
	srv  *http.Server
	ln   net.Listener
}

// system is the booted cluster plus the one transport everything in the
// process talks through: every node's ClusterOptions.Transport and the
// clients' HTTPClient share it, and its dialer maps each advertised name
// to that node's listener.
type system struct {
	w     workload
	nodes []*node
	base  *http.Transport
	// pushes counts completed POST /v1/replicate round trips; draining
	// waits for it to reach (replicas-1) × executions.
	pushes atomic.Int64
	tr     *tracer // nil on untraced runs
	client *http.Client
}

// nodeName is the fixed identity of node i.
func nodeName(i int) string { return "node-" + string(rune('a'+i)) }

// boot starts the workload's nodes and waits until every node
// sees every other alive. tr, when non-nil, wraps each node's handler and
// transport with the tracing observers.
func boot(w workload, tr *tracer) (*system, error) {
	s := &system{w: w, tr: tr}
	addrs := map[string]string{}
	for i := range w.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		n := &node{name: nodeName(i), url: "http://" + nodeName(i) + ".bench", ln: ln}
		addrs[n.name+".bench:80"] = ln.Addr().String()
		s.nodes = append(s.nodes, n)
	}
	dialer := &net.Dialer{}
	s.base = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("perfbench: no node at %s", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
		// Enough idle connections per host that two clients, two workers'
		// proxy hops and the replication loops never churn TCP connections.
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     time.Minute,
	}
	var clientRT http.RoundTripper = s.base
	if tr != nil {
		clientRT = tr.roundTripper("client", s.base)
	}
	s.client = &http.Client{Transport: clientRT}

	var urls []string
	for _, n := range s.nodes {
		urls = append(urls, n.url)
	}
	for i, n := range s.nodes {
		opts := service.Options{Workers: w.Workers[i], CacheSize: w.CacheSize}
		if w.Nodes > 1 {
			var rt http.RoundTripper = &countingRT{base: s.base, pushes: &s.pushes}
			if tr != nil {
				rt = tr.roundTripper(n.name, rt)
			}
			opts.Cluster = service.ClusterOptions{
				Self:                n.url,
				Peers:               urls,
				ProbeInterval:       w.ProbeInterval,
				ProbeTimeout:        5 * time.Second,
				Replicas:            w.Replicas,
				Transport:           rt,
				AntiEntropyInterval: w.AntiEntropyInterval,
			}
		}
		m, err := service.New(opts)
		if err != nil {
			s.close()
			return nil, err
		}
		n.mgr = m
		var h http.Handler = service.NewHandler(m)
		if tr != nil {
			h = tr.middleware(n.name, h)
		}
		n.srv = &http.Server{Handler: h}
		go n.srv.Serve(n.ln)
	}
	if err := s.waitAlive(10 * time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitAlive blocks until every node reports every member alive.
func (s *system) waitAlive(timeout time.Duration) error {
	if len(s.nodes) < 2 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for _, n := range s.nodes {
		for {
			alive := 0
			for _, p := range n.mgr.ClusterStatus().Peers {
				if p.State == "alive" {
					alive++
				}
			}
			if alive == len(s.nodes) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("perfbench: %s sees %d of %d members alive", n.name, alive, len(s.nodes))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// executions sums the engine executions of every node.
func (s *system) executions() uint64 {
	var sum uint64
	for _, n := range s.nodes {
		sum += n.mgr.Stats().Executions
	}
	return sum
}

// drain blocks until every replication push has landed: the pushes
// counter reaches (replicas-1) × executions. A standalone node has nothing
// asynchronous and returns at once.
func (s *system) drain(timeout time.Duration) error {
	if len(s.nodes) < 2 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	want := int64(s.executions()) * int64(s.w.Replicas-1)
	for s.pushes.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("perfbench: replication did not drain: %d of %d pushes", s.pushes.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops every node, HTTP first, then closes the shared transport's
// idle connections.
func (s *system) close() {
	for _, n := range s.nodes {
		if n.srv != nil {
			n.srv.Close()
		} else if n.ln != nil {
			n.ln.Close()
		}
	}
	for _, n := range s.nodes {
		if n.mgr != nil {
			n.mgr.Close()
		}
	}
	if s.base != nil {
		s.base.CloseIdleConnections()
	}
}

// countingRT counts completed replication pushes for drain; it adds one
// path comparison and, on pushes, one atomic increment per request.
type countingRT struct {
	base   http.RoundTripper
	pushes *atomic.Int64
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/v1/replicate" {
		c.pushes.Add(1)
	}
	return resp, err
}
