package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// clientFlushEvery bounds how many pipelined requests may batch into
// one socket flush before the writer flushes anyway.
const clientFlushEvery = 8

// Client speaks the framed protocol over one connection, pipelining
// requests: Send returns immediately with a channel for the response,
// Do blocks for it, and any number of requests may be in flight (the
// server's per-connection window permitting — beyond it, sends simply
// backpressure through TCP). Request IDs are assigned by the client;
// responses are routed back by ID, so completion order does not need to
// match send order. A Client is safe for concurrent use.
//
// Flushes are batched the same way the server's writer batches them:
// each Send registers as a writer before taking the write lock, and the
// last concurrent writer out — or any writer with clientFlushEvery
// requests unflushed — flushes. Sequential callers still flush every
// request (each is its own last writer), but concurrent pipelined load
// coalesces bursts into one syscall, so a load generator no longer pays
// a write syscall per request and under-measures server capacity.
type Client struct {
	nc net.Conn

	// writers counts Sends that intend to write but have not yet left
	// the write critical section; the last one out flushes.
	writers  atomic.Int32
	flushes  atomic.Uint64
	flushCtr *obs.Counter // client_flushes_total

	wmu       sync.Mutex
	bw        *bufio.Writer
	buf       []byte
	unflushed int

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Response
	err     error // terminal stream error; set once
}

// Dial connects a Client to a framed-TCP server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (tests pass one half of a
// net.Pipe). The client owns nc and closes it on Close.
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:       nc,
		bw:       bufio.NewWriter(nc),
		flushCtr: obs.Default().Counter("client_flushes_total"),
		pending:  map[uint64]chan *Response{},
	}
	go c.readLoop()
	return c
}

// Flushes returns how many socket flushes this client has issued — the
// denominator of perfbench's requests-per-flush figure.
func (c *Client) Flushes() uint64 { return c.flushes.Load() }

// Send writes req (its ID is overwritten with a client-assigned one)
// and returns a 1-buffered channel that receives the response. The
// channel is closed without a value if the stream dies first; Err then
// reports why.
func (c *Client) Send(req *Request) (<-chan *Response, error) {
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.writers.Add(1)
	c.wmu.Lock()
	b, err := AppendRequest(c.buf[:0], req)
	if err == nil {
		c.buf = b
		if _, werr := c.bw.Write(b); werr != nil {
			err = werr
		} else {
			c.unflushed++
		}
	}
	// The last concurrent writer must flush even when its own request
	// failed to encode: earlier writers may have skipped their flush on
	// the promise that someone behind them holds the lock after.
	last := c.writers.Add(-1) == 0
	if c.unflushed > 0 && (last || c.unflushed >= clientFlushEvery) {
		if ferr := c.bw.Flush(); ferr != nil {
			if err == nil {
				err = ferr
			}
		} else {
			c.unflushed = 0
			c.flushes.Add(1)
			c.flushCtr.Inc()
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Do sends req and blocks for its response.
func (c *Client) Do(req *Request) (*Response, error) {
	ch, err := c.Send(req)
	if err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		return nil, c.Err()
	}
	return resp, nil
}

// Err returns the terminal stream error, or nil while the client is
// healthy. A clean server-side close reads as io.EOF.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; outstanding Sends observe a closed
// channel.
func (c *Client) Close() error {
	err := c.nc.Close()
	c.fail(fmt.Errorf("serve: client closed"))
	return err
}

// fail records the terminal error once and wakes every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// readLoop routes responses to their waiters until the stream ends.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.nc)
	var buf []byte
	for {
		t, payload, err := ReadFrame(br, buf)
		buf = payload
		if err != nil {
			c.fail(err) // io.EOF here means the server drained and hung up
			return
		}
		if t != MsgResult {
			c.fail(fmt.Errorf("serve: unexpected %d frame from server", t))
			c.nc.Close()
			return
		}
		resp := new(Response)
		if err := ParseResponse(payload, resp); err != nil {
			c.fail(err)
			c.nc.Close()
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}
