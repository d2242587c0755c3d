package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// web is a client host and a server host on one switch.
type web struct {
	k      *sim.Kernel
	client *Client
	server *Server
	ctcp   *tcp.Stack
}

var serverHP = inet.MustParseHostPort("10.0.0.2:80")

func newWeb(t *testing.T) *web {
	t.Helper()
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	prefix := inet.MustParsePrefix("10.0.0.0/24")
	ipC := ipv4.NewStack(k, "client")
	ipC.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.1"), prefix)
	ipS := ipv4.NewStack(k, "server")
	ipS.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.2"), prefix)
	ctcp := tcp.NewStack(ipC)
	stcp := tcp.NewStack(ipS)
	srv := NewServer(stcp)
	if err := srv.Start(80); err != nil {
		t.Fatal(err)
	}
	return &web{k: k, client: NewClient(ctcp), server: srv, ctcp: ctcp}
}

func TestGetOK(t *testing.T) {
	w := newWeb(t)
	w.server.Handle("/hello", func(req *Request) *Response {
		if req.Method != "GET" {
			t.Errorf("method %q", req.Method)
		}
		return NewResponse(200, "text/plain", []byte("hi there"))
	})
	var res Result
	w.client.Get(serverHP, "/hello", func(r Result) { res = r })
	w.k.RunUntil(10 * sim.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Response.Status != 200 || string(res.Response.Body) != "hi there" {
		t.Fatalf("resp %+v", res.Response)
	}
}

func TestNotFound(t *testing.T) {
	w := newWeb(t)
	var res Result
	w.client.Get(serverHP, "/missing", func(r Result) { res = r })
	w.k.RunUntil(10 * sim.Second)
	if res.Err != nil || res.Response.Status != 404 {
		t.Fatalf("res %+v err %v", res.Response, res.Err)
	}
}

func TestFallbackHandler(t *testing.T) {
	w := newWeb(t)
	w.server.HandleFallback(func(req *Request) *Response {
		return NewResponse(200, "text/plain", []byte("fallback:"+req.Path))
	})
	var res Result
	w.client.Get(serverHP, "/anything", func(r Result) { res = r })
	w.k.RunUntil(10 * sim.Second)
	if res.Err != nil || string(res.Response.Body) != "fallback:/anything" {
		t.Fatalf("res %+v err %v", res.Response, res.Err)
	}
}

func TestPostBody(t *testing.T) {
	w := newWeb(t)
	w.server.Handle("/submit", func(req *Request) *Response {
		return NewResponse(200, "text/plain", append([]byte("got:"), req.Body...))
	})
	var res Result
	w.client.Do(serverHP, "POST", "/submit", []byte("form data"), func(r Result) { res = r })
	w.k.RunUntil(10 * sim.Second)
	if res.Err != nil || string(res.Response.Body) != "got:form data" {
		t.Fatalf("res %+v err %v", res.Response, res.Err)
	}
}

func TestLargeBody(t *testing.T) {
	w := newWeb(t)
	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte(i * 13)
	}
	w.server.Handle("/big", func(req *Request) *Response {
		return NewResponse(200, "application/octet-stream", big)
	})
	var res Result
	w.client.Get(serverHP, "/big", func(r Result) { res = r })
	w.k.RunUntil(sim.Minute)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !bytes.Equal(res.Response.Body, big) {
		t.Fatalf("body mismatch: %d/%d bytes", len(res.Response.Body), len(big))
	}
}

func TestConnectionRefusedSurfaces(t *testing.T) {
	w := newWeb(t)
	var res Result
	w.client.Get(inet.MustParseHostPort("10.0.0.2:81"), "/", func(r Result) { res = r })
	w.k.RunUntil(10 * sim.Second)
	if res.Err == nil {
		t.Fatal("no error for refused connection")
	}
}

func TestUnreachableHostTimesOut(t *testing.T) {
	w := newWeb(t)
	var res Result
	w.client.Get(inet.MustParseHostPort("10.0.0.99:80"), "/", func(r Result) { res = r })
	w.k.RunUntil(3 * sim.Minute)
	if res.Err == nil {
		t.Fatal("no error for unreachable host")
	}
}

func TestParseRequestIncremental(t *testing.T) {
	full := []byte("GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc")
	for i := 0; i < len(full); i++ {
		_, _, ok, err := parseRequest(full[:i])
		if err != nil {
			t.Fatalf("prefix %d: %v", i, err)
		}
		if ok {
			t.Fatalf("prefix %d parsed as complete", i)
		}
	}
	req, rest, ok, err := parseRequest(full)
	if err != nil || !ok {
		t.Fatalf("full parse: ok=%v err=%v", ok, err)
	}
	if req.Method != "GET" || req.Path != "/x" || string(req.Body) != "abc" || len(rest) != 0 {
		t.Fatalf("req %+v", req)
	}
}

func TestParseRequestRejectsGarbage(t *testing.T) {
	if _, _, _, err := parseRequest([]byte("NONSENSE\r\n\r\n")); err == nil {
		t.Fatal("bad request line accepted")
	}
	if _, _, _, err := parseRequest([]byte("GET / HTTP/1.1\r\nBadHeader\r\n\r\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestParseResponseContentLength(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	resp, ok, err := parseResponse(raw)
	if err != nil || !ok || resp.Status != 200 || string(resp.Body) != "hello" {
		t.Fatalf("resp=%+v ok=%v err=%v", resp, ok, err)
	}
	// Incomplete body.
	_, ok, err = parseResponse(raw[:len(raw)-1])
	if err != nil || ok {
		t.Fatal("incomplete body parsed as complete")
	}
}

func TestDownloadSiteRoundTrip(t *testing.T) {
	w := newWeb(t)
	site := &DownloadSite{FileName: "file.tgz", Contents: []byte("genuine software v1.0")}
	site.Install(w.server)

	var page Result
	w.client.Get(serverHP, "/", func(r Result) { page = r })
	w.k.RunUntil(10 * sim.Second)
	if page.Err != nil {
		t.Fatal(page.Err)
	}
	href, md5hex, err := ParseDownloadPage(page.Response.Body)
	if err != nil {
		t.Fatal(err)
	}
	if href != "file.tgz" {
		t.Fatalf("href %q", href)
	}
	var file Result
	w.client.Get(serverHP, "/"+href, func(r Result) { file = r })
	w.k.RunUntil(w.k.Now() + 10*sim.Second)
	if file.Err != nil {
		t.Fatal(file.Err)
	}
	if !MD5Matches(file.Response.Body, md5hex) {
		t.Fatal("genuine download failed md5 check")
	}
	if string(file.Response.Body) != "genuine software v1.0" {
		t.Fatalf("body %q", file.Response.Body)
	}
}

func TestParseDownloadPageErrors(t *testing.T) {
	if _, _, err := ParseDownloadPage([]byte("<html>nothing</html>")); err == nil {
		t.Fatal("no href: accepted")
	}
	if _, _, err := ParseDownloadPage([]byte("href=x.tgz but no sum")); err == nil {
		t.Fatal("no md5: accepted")
	}
}

func TestMD5Matches(t *testing.T) {
	site := &DownloadSite{FileName: "f", Contents: []byte("data")}
	if !MD5Matches([]byte("data"), site.MD5Hex()) {
		t.Fatal("matching digest rejected")
	}
	if MD5Matches([]byte("tampered"), site.MD5Hex()) {
		t.Fatal("wrong digest accepted")
	}
	if !strings.EqualFold(site.MD5Hex(), site.MD5Hex()) || len(site.MD5Hex()) != 32 {
		t.Fatal("digest format")
	}
}

func TestConcurrentRequests(t *testing.T) {
	w := newWeb(t)
	w.server.Handle("/n", func(req *Request) *Response {
		return NewResponse(200, "text/plain", []byte("ok"))
	})
	done := 0
	for i := 0; i < 10; i++ {
		w.client.Get(serverHP, "/n", func(r Result) {
			if r.Err == nil && r.Response.Status == 200 {
				done++
			}
		})
	}
	w.k.RunUntil(30 * sim.Second)
	if done != 10 {
		t.Fatalf("completed %d/10", done)
	}
	if w.server.Requests != 10 {
		t.Fatalf("server saw %d requests", w.server.Requests)
	}
}

// HTTP parsers must never panic on arbitrary bytes from the network.
func TestQuickHTTPParsersNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _, _, _ = parseRequest(b)
		_, _, _ = parseResponse(b)
		_, _, _ = ParseDownloadPage(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// sameResponse reports whether two parsed responses are equal field by field.
func sameResponse(a, b *Response) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Status == b.Status && a.Reason == b.Reason &&
		reflect.DeepEqual(a.Headers, b.Headers) && bytes.Equal(a.Body, b.Body)
}

// TestResponseReaderSplits feeds responses to the client's reader split at
// every byte offset, and one byte per segment, and requires every segment to
// give what a one-shot parseResponse gives on everything received so far:
// the same response (a close-delimited one with the same body so far),
// complete on the same segment, or an error on the same segment.
func TestResponseReaderSplits(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"},
		{"zero length", "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"},
		{"bytes past length", "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcdef"},
		{"blank line in body", "HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n\r\n\r\nabcd"},
		{"close-delimited", "HTTP/1.0 200 OK\r\nX-A: b\r\n\r\nbody to eof"},
		{"no reason, junk header", "HTTP/1.1 204\r\nnot a header\r\nContent-Length: 0\r\n\r\n"},
		{"bad status line", "HTCPCP/1.0 418 Teapot\r\nContent-Length: 0\r\n\r\n"},
		{"bad status", "HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n"},
		{"bad content-length", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nx"},
		{"marshalled", string(NewResponse(200, "text/plain", []byte("payload\r\n\r\nmore")).marshal())},
	}
	check := func(t *testing.T, what string, rr *responseReader, seg, sofar []byte) bool {
		t.Helper()
		got, gotOK, gotErr := rr.feed(seg)
		want, wantOK, wantErr := parseResponse(sofar)
		if (gotErr != nil) != (wantErr != nil) || gotOK != wantOK || !sameResponse(got, want) {
			t.Fatalf("%s: feed = (%+v, %v, %v), parseResponse = (%+v, %v, %v)",
				what, got, gotOK, gotErr, want, wantOK, wantErr)
		}
		return gotOK || gotErr != nil
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := []byte(c.raw)
			for i := 0; i <= len(raw); i++ {
				var rr responseReader
				what := fmt.Sprintf("split at %d", i)
				if !check(t, what+", first", &rr, raw[:i], raw[:i]) {
					check(t, what+", second", &rr, raw[i:], raw)
				}
			}
			var rr responseReader
			for i := 1; i <= len(raw); i++ {
				if check(t, fmt.Sprintf("byte %d", i), &rr, raw[i-1:i], raw[:i]) {
					return
				}
			}
		})
	}
}

// TestResponseHeadCap: a response whose head never ends fails once more than
// 64 KiB has arrived without its blank line, in parseResponse and on the
// first segment past the cap in the client's reader.
func TestResponseHeadCap(t *testing.T) {
	head := bytes.Repeat([]byte("X-Pad: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n"), 2000)
	if _, _, err := parseResponse(head[:maxHead]); err != nil {
		t.Fatalf("head of exactly %d bytes rejected: %v", maxHead, err)
	}
	if _, _, err := parseResponse(head); !errors.Is(err, errHeadTooLarge) {
		t.Fatalf("unterminated %d-byte head: err = %v, want %v", len(head), err, errHeadTooLarge)
	}
	var rr responseReader
	for off := 0; off < len(head); off += 1400 {
		end := min(off+1400, len(head))
		_, _, err := rr.feed(head[off:end])
		if over := end > maxHead; (err != nil) != over {
			t.Fatalf("after %d bytes: err = %v, want an error: %v", end, err, over)
		}
		if err != nil {
			return
		}
	}
	t.Fatal("reader never hit the head cap")
}
