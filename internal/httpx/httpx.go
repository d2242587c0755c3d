// Package httpx is a minimal HTTP/1.1 implementation over the simulated TCP
// stack (the standard library's net/http cannot run on a virtual-time
// event-driven transport). It provides just what the reproduction needs: a
// server with a path mux serving the paper's software-download site, and a
// client that fetches pages and files — the victim's browser and wget.
//
// Connections are one-request ("Connection: close"), matching the
// 2003-era download scenario in the paper.
package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/inet"
	"repro/internal/tcp"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
	Body    []byte
	// Remote is the client's address.
	Remote inet.HostPort
}

// Response is an HTTP response under construction or as parsed.
type Response struct {
	Status  int
	Reason  string
	Headers map[string]string
	Body    []byte
}

// NewResponse builds a response with standard reason text.
func NewResponse(status int, contentType string, body []byte) *Response {
	return &Response{
		Status: status,
		Reason: reasonFor(status),
		Headers: map[string]string{
			"Content-Type": contentType,
		},
		Body: body,
	}
}

func reasonFor(status int) string {
	switch status {
	case 200:
		return "OK"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// marshal serialises the response with Content-Length and close semantics.
// Headers are emitted in sorted order: map iteration order would put
// different bytes on the wire run to run, which breaks trace-digest
// determinism (and did, before sim.Kernel.Digest existed to catch it).
func (r *Response) marshal() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", r.Status, r.Reason)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	fmt.Fprintf(&b, "Connection: close\r\n")
	keys := make([]string, 0, len(r.Headers))
	for k := range r.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	b.WriteString("\r\n")
	b.Write(r.Body)
	return b.Bytes()
}

// Handler produces a response for a request.
type Handler func(req *Request) *Response

// Server is a mux-based HTTP server on a simulated TCP stack.
type Server struct {
	tcpStack *tcp.Stack
	mux      map[string]Handler
	fallback Handler

	// Requests counts served requests.
	Requests uint64
}

// NewServer creates a server; call Handle/HandleFunc then Start.
func NewServer(t *tcp.Stack) *Server {
	return &Server{tcpStack: t, mux: make(map[string]Handler)}
}

// Handle registers a handler for an exact path.
func (s *Server) Handle(path string, h Handler) { s.mux[path] = h }

// HandleFallback registers the handler for unmatched paths (default 404).
func (s *Server) HandleFallback(h Handler) { s.fallback = h }

// Start listens on port.
func (s *Server) Start(port inet.Port) error {
	l, err := s.tcpStack.Listen(port)
	if err != nil {
		return err
	}
	l.OnAccept = s.onAccept
	return nil
}

func (s *Server) onAccept(c *tcp.Conn) {
	var buf []byte
	handled := false
	c.OnData = func(b []byte) {
		if handled {
			return
		}
		buf = append(buf, b...)
		req, rest, ok, err := parseRequest(buf)
		if err != nil {
			c.Abort()
			return
		}
		if !ok {
			return
		}
		_ = rest
		handled = true
		req.Remote = c.RemoteAddr()
		s.Requests++
		h := s.mux[req.Path]
		if h == nil {
			h = s.fallback
		}
		var resp *Response
		if h == nil {
			resp = NewResponse(404, "text/plain", []byte("not found\n"))
		} else {
			resp = h(req)
			if resp == nil {
				resp = NewResponse(500, "text/plain", []byte("handler returned nil\n"))
			}
		}
		_ = c.Write(resp.marshal())
		c.Close()
	}
}

// headEnd is the blank line that ends a request or response head.
var headEnd = []byte("\r\n\r\n")

// maxHead caps how much a peer may send without ending its head: past it a
// parser reports errHeadTooLarge instead of buffering and rescanning without
// bound.
const maxHead = 64 * 1024

var errHeadTooLarge = errors.New("httpx: header too large")

// parseRequest attempts to parse a complete request from buf. ok=false means
// more data is needed.
func parseRequest(buf []byte) (req *Request, rest []byte, ok bool, err error) {
	head, body, found := bytes.Cut(buf, headEnd)
	if !found {
		if len(buf) > maxHead {
			return nil, nil, false, errHeadTooLarge
		}
		return nil, nil, false, nil
	}
	lines := strings.Split(string(head), "\r\n")
	if len(lines) == 0 {
		return nil, nil, false, errors.New("httpx: empty request")
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 {
		return nil, nil, false, fmt.Errorf("httpx: bad request line %q", lines[0])
	}
	r := &Request{
		Method:  parts[0],
		Path:    parts[1],
		Proto:   parts[2],
		Headers: make(map[string]string),
	}
	for _, line := range lines[1:] {
		k, v, found := strings.Cut(line, ":")
		if !found {
			return nil, nil, false, fmt.Errorf("httpx: bad header %q", line)
		}
		r.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	n := 0
	if cl, okH := r.Headers["content-length"]; okH {
		n, err = strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, nil, false, errors.New("httpx: bad content-length")
		}
	}
	if len(body) < n {
		return nil, nil, false, nil
	}
	r.Body = body[:n]
	return r, body[n:], true, nil
}

// parseResponse parses a complete response (headers plus content-length
// body) from buf, in place. ok=false means incomplete; a close-delimited
// response (no Content-Length) is never complete, and comes back with the
// body so far.
func parseResponse(buf []byte) (resp *Response, ok bool, err error) {
	rr := responseReader{buf: buf}
	return rr.parse(0)
}

// responseReader reads one response from a stream of TCP segments. Its head
// is parsed once, when the blank line arrives; after that a segment only
// counts body bytes against Content-Length.
type responseReader struct {
	buf []byte
	// resp is the parsed head, nil until its blank line arrives; the body
	// starts at buf[bodyAt] and runs for n bytes, or to EOF when n < 0.
	resp   *Response
	bodyAt int
	n      int
}

// feed appends one segment and returns what parseResponse returns on
// everything received so far.
func (rr *responseReader) feed(seg []byte) (resp *Response, ok bool, err error) {
	// Resume the blank-line search where the last one stopped, backing up
	// over a blank line that straddles two segments.
	from := max(len(rr.buf)-(len(headEnd)-1), 0)
	rr.buf = append(rr.buf, seg...)
	return rr.parse(from)
}

// parse continues the parse of rr.buf, searching for the end of the head
// from buf[from] while it has not arrived.
func (rr *responseReader) parse(from int) (resp *Response, ok bool, err error) {
	if rr.resp == nil {
		i := bytes.Index(rr.buf[from:], headEnd)
		if i < 0 {
			if len(rr.buf) > maxHead {
				return nil, false, errHeadTooLarge
			}
			return nil, false, nil
		}
		r, n, err := parseResponseHead(rr.buf[:from+i])
		if err != nil {
			return nil, false, err
		}
		rr.resp, rr.bodyAt, rr.n = r, from+i+len(headEnd), n
	}
	if rr.n < 0 {
		// No content length: close-delimited; caller must wait for EOF.
		rr.resp.Body = rr.buf[rr.bodyAt:]
		return rr.resp, false, nil
	}
	if len(rr.buf)-rr.bodyAt < rr.n {
		return nil, false, nil
	}
	rr.resp.Body = rr.buf[rr.bodyAt : rr.bodyAt+rr.n]
	return rr.resp, true, nil
}

// parseResponseHead parses a status line and headers (head, without its
// blank line). n is the Content-Length, or -1 when the body runs to EOF.
func parseResponseHead(head []byte) (r *Response, n int, err error) {
	lines := strings.Split(string(head), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, fmt.Errorf("httpx: bad status line %q", lines[0])
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, fmt.Errorf("httpx: bad status %q", parts[1])
	}
	r = &Response{Status: status, Headers: make(map[string]string)}
	if len(parts) == 3 {
		r.Reason = parts[2]
	}
	for _, line := range lines[1:] {
		k, v, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		r.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	n = -1
	if cl, okH := r.Headers["content-length"]; okH {
		n, err = strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, 0, errors.New("httpx: bad content-length")
		}
	}
	return r, n, nil
}

// Client issues HTTP requests over a simulated TCP stack.
type Client struct {
	tcpStack *tcp.Stack
}

// NewClient creates a client.
func NewClient(t *tcp.Stack) *Client { return &Client{tcpStack: t} }

// Result is a completed fetch.
type Result struct {
	Response *Response
	Err      error
}

// Get fetches http://<dst><path>, invoking done exactly once.
func (c *Client) Get(dst inet.HostPort, path string, done func(Result)) {
	c.Do(dst, "GET", path, nil, done)
}

// Do issues a request with an optional body.
func (c *Client) Do(dst inet.HostPort, method, path string, body []byte, done func(Result)) {
	conn, err := c.tcpStack.Dial(dst)
	if err != nil {
		done(Result{Err: err})
		return
	}
	finished := false
	finish := func(r Result) {
		if finished {
			return
		}
		finished = true
		done(r)
	}
	// The response is read incrementally; a close-delimited one is partial
	// until EOF completes it.
	var rr responseReader
	var partial *Response
	complete := false

	conn.OnConnect = func() {
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, path)
		fmt.Fprintf(&b, "Host: %s\r\n", dst)
		fmt.Fprintf(&b, "User-Agent: repro-httpx/1.0\r\n")
		fmt.Fprintf(&b, "Connection: close\r\n")
		if body != nil {
			fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
		}
		b.WriteString("\r\n")
		b.Write(body)
		if err := conn.Write(b.Bytes()); err != nil {
			finish(Result{Err: err})
			conn.Abort()
		}
	}
	conn.OnData = func(b []byte) {
		if complete {
			return
		}
		resp, ok, err := rr.feed(b)
		switch {
		case err != nil:
			complete = true
			finish(Result{Err: err})
			conn.Abort()
		case ok:
			complete = true
			finish(Result{Response: resp})
			conn.Close()
		default:
			partial = resp
		}
	}
	conn.OnEOF = func() {
		if complete {
			return
		}
		if partial != nil {
			complete = true
			finish(Result{Response: partial})
			conn.Close()
			return
		}
		finish(Result{Err: errors.New("httpx: connection closed before response")})
	}
	conn.OnClose = func(err error) {
		if !complete {
			if err == nil {
				err = errors.New("httpx: connection closed before response")
			}
			finish(Result{Err: err})
		}
	}
}
