package httpx

import (
	"bytes"
	"testing"
)

// The httpx parsers read bytes that netsed rewrites in flight, so none may
// panic on anything the wire can carry. Each target also pins what a parse
// hands back against the input it came from.

// FuzzHTTPRequest checks parseRequest: no panic, and on a complete request
// the body and the unread rest are, in order, the tail of the input.
func FuzzHTTPRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: 10.0.0.1:80\r\nUser-Agent: repro-httpx/1.0\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("POST /up HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET"))
	f.Add([]byte("GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, rest, ok, err := parseRequest(b)
		if err != nil || !ok {
			if req != nil || rest != nil {
				t.Fatalf("incomplete parse returned request %+v, rest %q", req, rest)
			}
			return
		}
		tail := append(append([]byte{}, req.Body...), rest...)
		if !bytes.HasSuffix(b, tail) {
			t.Fatalf("body %q + rest %q is not a suffix of the input", req.Body, rest)
		}
	})
}

// FuzzHTTPResponse checks parseResponse: no panic, the body is what follows
// the head, and whatever parses (complete or close-delimited) round-trips
// through Response.marshal into a complete response with the same status,
// reason, headers and body.
func FuzzHTTPResponse(f *testing.F) {
	f.Add(NewResponse(200, "text/html", []byte("<html>hi</html>")).marshal())
	f.Add([]byte("HTTP/1.0 200 OK\r\nX-A: b\r\n\r\nclose-delimited"))
	f.Add([]byte("HTTP/1.1 204\r\nnot a header\r\nContent-Length: 0\r\n\r\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, ok, err := parseResponse(b)
		if err != nil || resp == nil {
			if ok {
				t.Fatal("ok without a response")
			}
			return
		}
		_, after, _ := bytes.Cut(b, headEnd)
		if !bytes.HasPrefix(after, resp.Body) {
			t.Fatalf("body %q does not follow the head", resp.Body)
		}
		again, ok2, err := parseResponse(resp.marshal())
		if err != nil || !ok2 {
			t.Fatalf("re-parse of marshalled response: ok=%v err=%v", ok2, err)
		}
		if again.Status != resp.Status || again.Reason != resp.Reason || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("round trip changed the response: %+v -> %+v", resp, again)
		}
		for k, v := range resp.Headers {
			if again.Headers[k] != v {
				t.Fatalf("round trip changed header %q: %q -> %q", k, v, again.Headers[k])
			}
		}
	})
}

// FuzzDownloadPage checks ParseDownloadPage: no panic, and what it returns
// is read off the page, the MD5 as 32 lowercase hex digits.
func FuzzDownloadPage(f *testing.F) {
	f.Add((&DownloadSite{FileName: "file.tgz", Contents: []byte("genuine")}).PageHTML())
	f.Add([]byte("<a href=evil.tgz>x</a> MD5SUM: 0123456789abcdef0123456789abcdeg"))
	f.Add([]byte("href=\"q\" MD5SUM: 00000000000000000000000000000000"))
	f.Fuzz(func(t *testing.T, b []byte) {
		href, sum, err := ParseDownloadPage(b)
		if err != nil {
			return
		}
		if href == "" || !bytes.Contains(b, []byte("href="+href)) {
			t.Fatalf("href %q not read off the page", href)
		}
		if len(sum) != 32 || !bytes.Contains(b, []byte("MD5SUM: "+sum)) {
			t.Fatalf("md5 %q not read off the page", sum)
		}
		for _, c := range sum {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				t.Fatalf("md5 %q is not lowercase hex", sum)
			}
		}
	})
}
