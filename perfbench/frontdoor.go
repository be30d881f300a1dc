package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/server"
)

// streamsPerConn caps the requests the benchmark keeps open on one h2c
// connection, below the server's default limit of 250 concurrent streams,
// so the client transport never dials a second connection to make room.
const streamsPerConn = 200

// door is a front door on a listener plus the benchmark's h2c client: at
// most nproc connections, each carrying at most streamsPerConn requests.
type door struct {
	sv    *server.Server
	srv   *http.Server
	url   string
	conns []*doorConn
	next  atomic.Int64
	dials atomic.Int64
	wg    sync.WaitGroup // every fired request
	serve sync.WaitGroup // the serving goroutine
	sp    *spanLog
	types []int // resource types when requests carry Needs
	ids   *atomic.Int64
	// deadline is the Rsin-Deadline header every request carries.
	deadline time.Duration
}

type doorConn struct {
	client *http.Client
	slots  chan struct{}
}

func openDoor(s *sched.Scheduler, adm server.AdmissionConfig, reg *obs.Registry, conns int, deadline time.Duration, sp *spanLog, ids *atomic.Int64) (*door, error) {
	sv, err := server.New(server.Config{Sched: s, Admission: adm, Obs: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	d := &door{sv: sv, srv: sv.HTTPServer(), url: "http://" + ln.Addr().String() + "/v1/tasks",
		sp: sp, ids: ids, deadline: deadline}
	d.serve.Add(1)
	go func() {
		defer d.serve.Done()
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < conns; i++ {
		p := new(http.Protocols)
		p.SetUnencryptedHTTP2(true)
		var dialer net.Dialer
		tr := &http.Transport{
			Protocols: p,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				d.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}
		c := &doorConn{client: &http.Client{Transport: tr}, slots: make(chan struct{}, streamsPerConn)}
		// Open the connection before any concurrent use: requests that
		// start together on a transport with no connection yet each dial
		// one of their own.
		resp, err := c.client.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			_ = d.close()
			return nil, fmt.Errorf("opening h2c connection: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.ProtoMajor != 2 {
			_ = d.close()
			return nil, fmt.Errorf("front door answered over %s, want h2c", resp.Proto)
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

// close stops the listener and the client connections, waits for the
// serving goroutine, and checks that the client kept to one connection
// per transport.
func (d *door) close() error {
	d.sv.Drain()
	_ = d.srv.Close()
	for _, c := range d.conns {
		c.client.CloseIdleConnections()
	}
	d.serve.Wait()
	if n := d.dials.Load(); n > int64(len(d.conns)) {
		return fmt.Errorf("the client dialed %d h2c connections, cap %d", n, len(d.conns))
	}
	return nil
}

// slot picks a connection with a free stream, round robin. Nil means every
// connection is full: the benchmark cannot send without opening more.
func (d *door) slot() *doorConn {
	n := len(d.conns)
	start := int(d.next.Add(1))
	for i := 0; i < n; i++ {
		c := d.conns[(start+i)%n]
		select {
		case c.slots <- struct{}{}:
			return c
		default:
		}
	}
	return nil
}

func requestBody(ts taskSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"shard":%d,"proc":%d,"tier":%d,"hold_us":%d,"stream":true`,
		ts.shard, ts.procs[0], ts.tier, ts.hold.Microseconds())
	if ts.needs != nil {
		keys := make([]int, 0, len(ts.needs))
		for ty := range ts.needs {
			keys = append(keys, ty)
		}
		sort.Ints(keys)
		b.WriteString(`,"needs":{`)
		for i, ty := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"%d":%d`, ty, ts.needs[ty])
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

// fire sends one POST /v1/tasks as an ndjson stream and times it from its
// due instant to the "granted" event.
func (d *door) fire(ctx context.Context, a arrival, due time.Time, t *tally) {
	if a.chaos != nil {
		return
	}
	c := d.slot()
	if c == nil {
		t.outstanding.Add(-1)
		t.fail(errors.New("every h2c connection is at its stream cap"))
		return
	}
	id := d.ids.Add(1)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-c.slots }()
		granted := d.do(ctx, c.client, a.task, id, due, t)
		if !granted {
			t.outstanding.Add(-1)
		}
	}()
}

// do runs one request and classifies its outcome. It reports whether the
// request reached "granted" (which already settled its outstanding count).
func (d *door) do(ctx context.Context, client *http.Client, ts taskSpec, id int64, due time.Time, t *tally) bool {
	root := d.sp.newID()
	// A stream the client resets holds its connection's concurrency slot
	// until the server answers a PING, and under load enough of them make
	// the transport dial past the connection cap. So a withdrawn backlog
	// is not canceled on the wire (every request carries Rsin-Deadline,
	// so the server ends it), and every body is read to its end.
	ctx = context.WithoutCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, strings.NewReader(requestBody(ts)))
	if err != nil {
		t.fail(err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.DeadlineHeader, d.deadline.String())
	resp, err := client.Do(req)
	if err != nil {
		t.fail(fmt.Errorf("transport: %w", err))
		return false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		if err := checkShed(resp.Header.Get("Retry-After")); err != nil {
			t.violate(err)
			return false
		}
		t.refused.Add(1)
		d.sp.record(root, "http.shed", id, 0, due, time.Now())
		return false
	default:
		b, _ := io.ReadAll(resp.Body)
		t.fail(fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b))))
		return false
	}
	dec := json.NewDecoder(resp.Body)
	granted := false
	for {
		var ev server.TaskEvent
		if err := dec.Decode(&ev); err != nil {
			t.fail(fmt.Errorf("request %d: stream ended before serviced: %v", id, err))
			return granted
		}
		switch ev.Event {
		case "admitted":
			t.admitted.Add(1)
		case "granted":
			g := time.Now()
			granted = true
			t.outstanding.Add(-1)
			d.sp.record(root, "http.grant", id, 0, due, g)
			if ts.needs != nil {
				if err := checkTyped(ts.needs, ev.Resources, d.types); err != nil {
					t.violate(err)
				}
			} else if len(ev.Resources) != 1 {
				t.violate(fmt.Errorf("request %d granted %d units, want 1", id, len(ev.Resources)))
			}
			t.granted.Add(1)
			t.grant(due, g, ts.tier)
		case "serviced":
			d.sp.add("http.request", id, root, due, time.Now())
			return granted
		case "failed":
			if ev.Cause == "timeout" {
				t.timeouts.Add(1)
			}
			t.fail(fmt.Errorf("request %d failed: %s: %s", id, ev.Cause, ev.Error))
			return granted
		}
	}
}

func (d *door) wait() { d.wg.Wait() }
