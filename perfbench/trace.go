package main

import (
	"errors"
	"fmt"
	"net" //ironsafe:allow boundary -- the traced run dials in-process pipes to storage exactly as the cluster does, to wrap them with byte and wait counters
	"sync"
	"sync/atomic"
	"time"

	"ironsafe"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/ingest"
	"ironsafe/internal/monitor"
	"ironsafe/internal/pager"
	"ironsafe/internal/partition"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/storageengine"
)

// Span names. Each wraps one call into a module's public API, made from
// the benchmark's own code.
const (
	spanQuery        = "query"                    // one replayed Session.Query
	spanAuthorize    = "monitor.authorize"        // Monitor.Authorize
	spanSplit        = "partition.split"          // parser.ParseSelect + partition.SplitQuery
	spanExecuteSplit = "hostengine.execute_split" // Host.ExecuteSplit
	spanExecuteLocal = "hostengine.execute_local" // Host.ExecuteLocal
	spanOffload      = "hostengine.offload"       // StorageNode.Offload, host side
	spanServe        = "storageengine.serve"      // storage side: request received to reply sent
	spanSubmit       = "ingest.submit"            // Pipeline.Submit
)

// span is one timed call. Spans of one request share Req; Parent is the
// span that caused it (0 for a root, or when the cause is inside the
// program where the benchmark cannot see it).
type span struct {
	ID, Parent, Req int64
	Name            string
	StartUS, EndUS  float64
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, StartUS: us(start.Sub(t.base)), EndUS: us(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats aggregates spans by name.
type spanStats struct {
	count map[string]int
	sumUS map[string]float64
	// hostPhaseUS is ExecuteSplit's self time: each execute_split span
	// minus the offload spans it caused.
	hostPhaseUS float64
	// coveredUS is the part of the replayed queries' time that their
	// direct child spans (authorize, split, execute) account for.
	coveredUS float64
	// authorizeUS is every Monitor.Authorize span, queries' and records'.
	authorizeUS []float64
}

func aggregate(spans []span) spanStats {
	st := spanStats{count: map[string]int{}, sumUS: map[string]float64{}}
	offloads := map[int64]float64{}
	queries := map[int64]bool{}
	for _, s := range spans {
		st.count[s.Name]++
		st.sumUS[s.Name] += s.dur()
		switch s.Name {
		case spanOffload:
			offloads[s.Parent] += s.dur()
		case spanQuery:
			queries[s.ID] = true
		case spanAuthorize:
			st.authorizeUS = append(st.authorizeUS, s.dur())
		}
	}
	for _, s := range spans {
		if s.Name == spanExecuteSplit {
			st.hostPhaseUS += s.dur() - offloads[s.ID]
		}
		if queries[s.Parent] {
			st.coveredUS += s.dur()
		}
	}
	return st
}

// meanUS is the mean duration of the spans named name.
func (st spanStats) meanUS(name string) float64 {
	return ratio(st.sumUS[name], float64(st.count[name]))
}

// wireStats counts the traffic on the traced run's storage channels: bytes
// and writes in both directions (each transport frame is one write; the
// session preamble adds one per channel) and how long the host side waited
// in Read.
type wireStats struct {
	bytes      atomic.Int64
	frames     atomic.Int64
	readWaitNS atomic.Int64
}

// hostConn is the host end of a traced storage channel.
type hostConn struct {
	net.Conn
	w *wireStats
}

func (c *hostConn) Read(p []byte) (int, error) {
	start := now()
	n, err := c.Conn.Read(p) //ironsafe:allow rawnet -- pass-through counter beneath transport.SecureConn, which arms the deadlines
	c.w.readWaitNS.Add(int64(now().Sub(start)))
	return n, err
}

func (c *hostConn) Write(p []byte) (int, error) {
	c.w.frames.Add(1)
	c.w.bytes.Add(int64(len(p)))
	return c.Conn.Write(p) //ironsafe:allow rawnet -- pass-through counter beneath transport.SecureConn, which arms the deadlines
}

// storageConn is the storage end of a traced channel. The server reads a
// whole request and then writes its reply, so the time from the last Read
// to the next Write is the storage node's service time for that request:
// Server.ExecOffload plus encoding and sealing the result.
type storageConn struct {
	net.Conn
	w        *wireStats
	t        *tracer
	req      int64
	offload  atomic.Int64 // the host's in-flight offload span, 0 while idle
	lastRead time.Time    // touched only by the serving goroutine
	reading  bool
}

func (c *storageConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p) //ironsafe:allow rawnet -- pass-through counter beneath transport.SecureConn, which arms the deadlines
	c.lastRead, c.reading = now(), true
	return n, err
}

func (c *storageConn) Write(p []byte) (int, error) {
	if parent := c.offload.Load(); parent != 0 && c.reading {
		c.t.add(c.t.newID(), parent, c.req, spanServe, c.lastRead, now())
	}
	c.reading = false
	c.w.frames.Add(1)
	c.w.bytes.Add(int64(len(p)))
	return c.Conn.Write(p) //ironsafe:allow rawnet -- pass-through counter beneath transport.SecureConn, which arms the deadlines
}

// deviceStats counts storage medium I/O through Config.StorageDeviceWrapper.
type deviceStats struct {
	reads      atomic.Int64
	readNS     atomic.Int64
	writeBytes atomic.Int64
}

// deviceSnapshot is a copy of deviceStats' counters.
type deviceSnapshot struct{ reads, readNS, writeBytes int64 }

func (d *deviceStats) snapshot() deviceSnapshot {
	return deviceSnapshot{reads: d.reads.Load(), readNS: d.readNS.Load(), writeBytes: d.writeBytes.Load()}
}

func (s deviceSnapshot) sub(o deviceSnapshot) deviceSnapshot {
	return deviceSnapshot{reads: s.reads - o.reads, readNS: s.readNS - o.readNS, writeBytes: s.writeBytes - o.writeBytes}
}

func (d *deviceStats) wrap(_ string, dev pager.BlockDevice) pager.BlockDevice {
	return &countingDevice{BlockDevice: dev, st: d}
}

type countingDevice struct {
	pager.BlockDevice
	st *deviceStats
}

func (d *countingDevice) ReadBlock(idx uint32) ([]byte, error) {
	start := now()
	b, err := d.BlockDevice.ReadBlock(idx)
	d.st.readNS.Add(int64(now().Sub(start)))
	d.st.reads.Add(1)
	return b, err
}

func (d *countingDevice) WriteBlock(idx uint32, data []byte) error {
	d.st.writeBytes.Add(int64(len(data)))
	return d.BlockDevice.WriteBlock(idx, data)
}

// spanAuthorizer is the ingest pipeline's policy gate with each
// Monitor.Authorize call timed. Submit authorizes inside the pipeline, so
// these spans have no visible parent.
type spanAuthorizer struct {
	inner *monitor.Monitor
	t     *tracer
}

func (a spanAuthorizer) Authorize(req monitor.AuthRequest) (*monitor.Authorization, error) {
	start := now()
	auth, err := a.inner.Authorize(req)
	a.t.add(a.t.newID(), 0, 0, spanAuthorize, start, now())
	return auth, err
}

func (a spanAuthorizer) EndSession(id string) { a.inner.EndSession(id) }

// tracedSubmit times each Pipeline.Submit.
func tracedSubmit(p *ingest.Pipeline, t *tracer) submitFn {
	return func(rec ingest.Record) (ingest.Ack, error) {
		id := t.newID()
		start := now()
		ack, err := p.Submit(rec)
		t.add(id, 0, id, spanSubmit, start, now())
		return ack, err
	}
}

// tracedCluster replays Session.Query one public call at a time, so each
// module's share of a query's latency gets its own span.
type tracedCluster struct {
	c         *ironsafe.Cluster
	t         *tracer
	wire      wireStats
	fragments atomic.Int64
}

// query runs the steps of Session.Query: authorization and proof check at
// the monitor, then, on scs, partitioning and Host.ExecuteSplit over
// storage nodes whose every Offload is a child span, or, on hos,
// Host.ExecuteLocal. The partitioner runs twice on scs, once here to time
// it and once inside ExecuteSplit; the difference from the untraced run's
// latency is reported as the tracing overhead.
func (tc *tracedCluster) query(sql string) (*exec.Result, *ironsafe.QueryStats, error) {
	c, t := tc.c, tc.t
	req := t.newID()
	start := now()
	defer func() { t.add(req, 0, req, spanQuery, start, now()) }()

	a0 := now()
	auth, err := c.Monitor.Authorize(monitor.AuthRequest{
		Database:  "db", // the cluster's single database
		ClientKey: benchClient,
		SQL:       sql,
		HostID:    "host-1",
		Epoch:     c.Epoch(),
	})
	t.add(t.newID(), req, req, spanAuthorize, a0, now())
	if err != nil {
		return nil, nil, err
	}
	defer c.Monitor.EndSession(auth.SessionID)
	if !monitor.VerifyProof(c.MonitorPublicKey(), &auth.Proof) {
		return nil, nil, errors.New("monitor proof failed verification")
	}

	switch c.Mode() {
	case ironsafe.HostOnlySecure:
		e0 := now()
		res, err := c.Host.ExecuteLocal(c.AuthoritativeDB(), auth.RewrittenSQL)
		t.add(t.newID(), req, req, spanExecuteLocal, e0, now())
		return res, nil, err
	case ironsafe.IronSafe:
		s0 := now()
		sel, err := parser.ParseSelect(auth.RewrittenSQL)
		if err != nil {
			return nil, nil, err
		}
		split, err := partition.SplitQuery(sel, c.Host.Schemas())
		t.add(t.newID(), req, req, spanSplit, s0, now())
		if err != nil {
			return nil, nil, err
		}
		tc.fragments.Add(int64(len(split.Ships)))

		exID := t.newID()
		var nodes []hostengine.StorageNode
		for _, id := range auth.StorageIDs {
			srv := storageByID(c, id)
			if srv == nil {
				return nil, nil, fmt.Errorf("unknown storage node %q", id)
			}
			srv.InstallSessionKey(auth.SessionID, auth.SessionKey)
			defer srv.RevokeSessionKey(auth.SessionID)
			n := &spanNode{tc: tc, srv: srv, id: id, sessionID: auth.SessionID, key: auth.SessionKey, parent: exID, req: req}
			defer n.close()
			nodes = append(nodes, n)
		}
		e0 := now()
		res, _, err := c.Host.ExecuteSplit(auth.RewrittenSQL, nodes)
		t.add(exID, req, req, spanExecuteSplit, e0, now())
		return res, nil, err
	}
	return nil, nil, fmt.Errorf("the traced replay does not cover mode %s", c.Mode())
}

func storageByID(c *ironsafe.Cluster, id string) *storageengine.Server {
	for _, s := range c.Storage {
		if sid, _, _ := s.Info(); sid == id {
			return s
		}
	}
	return nil
}

// spanNode is a storage node for Host.ExecuteSplit whose every Offload is a
// span. Like the cluster's channel transport, it dials a monitor-keyed
// secure channel over an in-process pipe on first use, so the handshake
// falls inside the first offload as it does in Session.Query.
type spanNode struct {
	tc        *tracedCluster
	srv       *storageengine.Server
	id        string
	sessionID string
	key       []byte
	parent    int64
	req       int64

	remote  *hostengine.RemoteNode
	storage *storageConn
	served  sync.WaitGroup
}

func (n *spanNode) NodeID() string { return n.id }

func (n *spanNode) Offload(sql string) (*exec.Result, int64, error) {
	t := n.tc.t
	id := t.newID()
	start := now()
	defer func() { t.add(id, n.parent, n.req, spanOffload, start, now()) }()
	if n.remote == nil {
		if err := n.dial(); err != nil {
			return nil, 0, err
		}
	}
	n.storage.offload.Store(id)
	defer n.storage.offload.Store(0)
	return n.remote.Offload(sql)
}

func (n *spanNode) dial() error {
	hostEnd, storageEnd := net.Pipe()
	n.storage = &storageConn{Conn: storageEnd, w: &n.tc.wire, t: n.tc.t, req: n.req}
	n.served.Add(1)
	go func() {
		defer n.served.Done()
		n.srv.ServeConn(n.storage)
	}()
	remote, err := hostengine.NewRemoteNode(&hostConn{Conn: hostEnd, w: &n.tc.wire}, n.id, n.sessionID, n.key, n.tc.c.HostMeter)
	if err != nil {
		storageEnd.Close()
		n.served.Wait()
		return fmt.Errorf("channel to %s: %w", n.id, err)
	}
	n.remote = remote
	return nil
}

// close ends the channel and waits for the storage side to finish serving.
func (n *spanNode) close() {
	if n.remote != nil {
		// A failed goodbye only means the storage side already hung up;
		// either way ServeConn returns and the wait below ends.
		_ = n.remote.Close()
	}
	n.served.Wait()
}
