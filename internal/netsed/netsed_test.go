package netsed

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("s/href=file.tgz/href=http:%2f%2fevil%2ftrojan.tgz")
	if err != nil {
		t.Fatal(err)
	}
	if string(r.From) != "href=file.tgz" {
		t.Fatalf("from %q", r.From)
	}
	if string(r.To) != "href=http://evil/trojan.tgz" {
		t.Fatalf("to %q (escapes not decoded)", r.To)
	}
}

func TestParseRuleMaxHits(t *testing.T) {
	r, err := ParseRule("s/a/b/3")
	if err != nil || r.MaxHits != 3 {
		t.Fatalf("r=%+v err=%v", r, err)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, s := range []string{"", "x/a/b", "s/a", "s/a/b/c/d", "s//b", "s/a%2/b", "s/a%zz/b", "s/a/b/0"} {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) accepted", s)
		}
	}
}

func TestChunkRewriterReplacesWithinChunk(t *testing.T) {
	r, _ := ParseRule("s/REALSUM/FAKESUM")
	cw := NewChunkRewriter([]*Rule{r})
	out := cw.Rewrite([]byte("checksum: REALSUM here"))
	if string(out) != "checksum: FAKESUM here" {
		t.Fatalf("out %q", out)
	}
	if r.Hits != 1 {
		t.Fatalf("hits %d", r.Hits)
	}
	if tail := cw.Flush(); len(tail) != 0 {
		t.Fatal("chunk rewriter held bytes")
	}
}

func TestChunkRewriterMissesBoundary(t *testing.T) {
	// The paper's §4.2 limitation, reproduced exactly.
	r, _ := ParseRule("s/REALSUM/FAKESUM")
	cw := NewChunkRewriter([]*Rule{r})
	a := cw.Rewrite([]byte("xxREAL"))
	b := cw.Rewrite([]byte("SUMxx"))
	joined := string(a) + string(b)
	if joined != "xxREALSUMxx" {
		t.Fatalf("joined %q (chunk mode should have missed)", joined)
	}
	if r.Hits != 0 {
		t.Fatal("phantom hit recorded")
	}
}

func TestStreamRewriterCatchesBoundary(t *testing.T) {
	r, _ := ParseRule("s/REALSUM/FAKESUM")
	sw := NewStreamRewriter([]*Rule{r})
	var out bytes.Buffer
	out.Write(sw.Rewrite([]byte("xxREAL")))
	out.Write(sw.Rewrite([]byte("SUMxx")))
	out.Write(sw.Flush())
	if out.String() != "xxFAKESUMxx" {
		t.Fatalf("out %q", out.String())
	}
	if r.Hits != 1 {
		t.Fatalf("hits %d", r.Hits)
	}
}

func TestStreamRewriterByteAtATime(t *testing.T) {
	r, _ := ParseRule("s/pattern/REPLACED")
	sw := NewStreamRewriter([]*Rule{r})
	input := []byte("before pattern after pattern end")
	var out bytes.Buffer
	for _, c := range input {
		out.Write(sw.Rewrite([]byte{c}))
	}
	out.Write(sw.Flush())
	if out.String() != "before REPLACED after REPLACED end" {
		t.Fatalf("out %q", out.String())
	}
}

func TestStreamRewriterHonoursMaxHits(t *testing.T) {
	r, _ := ParseRule("s/aa/bb/2")
	sw := NewStreamRewriter([]*Rule{r})
	var out bytes.Buffer
	out.Write(sw.Rewrite([]byte("aa aa aa aa")))
	out.Write(sw.Flush())
	if out.String() != "bb bb aa aa" {
		t.Fatalf("out %q", out.String())
	}
}

func TestStreamRewriterNoFalseHold(t *testing.T) {
	// Text ending with a non-prefix must not be withheld.
	r, _ := ParseRule("s/zzz/yyy")
	sw := NewStreamRewriter([]*Rule{r})
	out := sw.Rewrite([]byte("plain text"))
	if string(out) != "plain text" {
		t.Fatalf("out %q", out)
	}
}

// Property: stream rewriting over any chunking equals whole-buffer rewrite.
func TestQuickStreamEqualsWhole(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		rWhole, _ := ParseRule("s/abc/XYZQ")
		whole := applyRules([]*Rule{rWhole}, append([]byte(nil), data...))

		rStream, _ := ParseRule("s/abc/XYZQ")
		sw := NewStreamRewriter([]*Rule{rStream})
		var out bytes.Buffer
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c)%len(rest) + 1
			out.Write(sw.Rewrite(rest[:n]))
			rest = rest[n:]
		}
		if len(rest) > 0 {
			out.Write(sw.Rewrite(rest))
		}
		out.Write(sw.Flush())
		return bytes.Equal(out.Bytes(), whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRulesOrdering(t *testing.T) {
	// Rules apply in order; a later rule can see an earlier rule's output.
	r1, _ := ParseRule("s/a/b")
	r2, _ := ParseRule("s/bb/c")
	out := applyRules([]*Rule{r1, r2}, []byte("ab"))
	if string(out) != "c" {
		t.Fatalf("out %q", out)
	}
}

func TestApplyRulesGrowingReplacementTerminates(t *testing.T) {
	// A replacement containing its own pattern must not loop: scanning
	// resumes after the spliced text, like real netsed.
	r := &Rule{From: []byte("x"), To: []byte("xx")}
	out := applyRules([]*Rule{r}, []byte("axa"))
	if string(out) != "axxa" || r.Hits != 1 {
		t.Fatalf("out=%q hits=%d", out, r.Hits)
	}
	// The §5.1 injection shape: <body> -> <body><script>.
	r2 := &Rule{From: []byte("<body>"), To: []byte("<body><script>")}
	out2 := applyRules([]*Rule{r2}, []byte("<html><body>hi</body>"))
	if string(out2) != "<html><body><script>hi</body>" || r2.Hits != 1 {
		t.Fatalf("out=%q hits=%d", out2, r2.Hits)
	}
}

// proxyWorld: client — [gateway running netsed] — server, all wired.
type proxyWorld struct {
	k      *sim.Kernel
	client *tcp.Stack
	proxy  *Proxy
	server *tcp.Stack
}

func newProxyWorld(t *testing.T, cfg Config) *proxyWorld {
	t.Helper()
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	prefix := inet.MustParsePrefix("10.0.0.0/24")

	ipC := ipv4.NewStack(k, "client")
	ipC.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.1"), prefix)
	ipG := ipv4.NewStack(k, "gw")
	ipG.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.254"), prefix)
	ipS := ipv4.NewStack(k, "server")
	ipS.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.80"), prefix)

	gtcp := tcp.NewStack(ipG)
	cfg.Upstream = inet.MustParseHostPort("10.0.0.80:80")
	cfg.ListenPort = 10101
	p, err := Start(gtcp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &proxyWorld{k: k, client: tcp.NewStack(ipC), proxy: p, server: tcp.NewStack(ipS)}
}

func TestProxyRewritesServerToClient(t *testing.T) {
	w := newProxyWorld(t, Config{Rules: []string{"s/REALMD5SUM/FAKEMD5SUM"}})
	l, _ := w.server.Listen(80)
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write([]byte("the sum is REALMD5SUM ok"))
			c.Close()
		}
	}
	c, _ := w.client.Dial(inet.MustParseHostPort("10.0.0.254:10101"))
	var got []byte
	eof := false
	c.OnConnect = func() { _ = c.Write([]byte("GET /")) }
	c.OnData = func(b []byte) { got = append(got, b...) }
	c.OnEOF = func() { eof = true }
	w.k.RunUntil(20 * sim.Second)
	if !eof {
		t.Fatal("no EOF relayed")
	}
	if string(got) != "the sum is FAKEMD5SUM ok" {
		t.Fatalf("got %q", got)
	}
	if w.proxy.ReplacementsIn != 1 {
		t.Fatalf("ReplacementsIn = %d", w.proxy.ReplacementsIn)
	}
}

func TestProxyClientToServerUntouchedByDefault(t *testing.T) {
	w := newProxyWorld(t, Config{Rules: []string{"s/SECRET/XXXXXX"}})
	l, _ := w.server.Listen(80)
	var atServer []byte
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) { atServer = append(atServer, b...) }
	}
	c, _ := w.client.Dial(inet.MustParseHostPort("10.0.0.254:10101"))
	c.OnConnect = func() { _ = c.Write([]byte("my SECRET query")) }
	w.k.RunUntil(10 * sim.Second)
	if string(atServer) != "my SECRET query" {
		t.Fatalf("server got %q", atServer)
	}
}

func TestProxyStreamingCatchesSegmentBoundary(t *testing.T) {
	// Server sends the pattern split across two writes (two TCP segments):
	// chunk mode misses, streaming mode catches.
	run := func(streaming bool) string {
		w := newProxyWorld(t, Config{Rules: []string{"s/REALMD5SUM/FAKEMD5SUM"}, Streaming: streaming})
		l, _ := w.server.Listen(80)
		l.OnAccept = func(c *tcp.Conn) {
			c.OnData = func(b []byte) {
				_ = c.Write([]byte("sum: REALMD"))
				// Force a segment boundary: second half later.
				w.k.After(50*sim.Millisecond, func() {
					_ = c.Write([]byte("5SUM done"))
					c.Close()
				})
			}
		}
		c, _ := w.client.Dial(inet.MustParseHostPort("10.0.0.254:10101"))
		var got []byte
		c.OnConnect = func() { _ = c.Write([]byte("GET")) }
		c.OnData = func(b []byte) { got = append(got, b...) }
		w.k.RunUntil(20 * sim.Second)
		return string(got)
	}
	if got := run(false); got != "sum: REALMD5SUM done" {
		t.Fatalf("chunk mode got %q, should have missed the split pattern", got)
	}
	if got := run(true); got != "sum: FAKEMD5SUM done" {
		t.Fatalf("streaming mode got %q, should have caught the split pattern", got)
	}
}

func TestProxyRelaysLargeBody(t *testing.T) {
	w := newProxyWorld(t, Config{Rules: []string{"s/needle/NEEDLE"}, Streaming: true})
	body := bytes.Repeat([]byte("haystack "), 20_000) // ~180 KB
	copy(body[100_000:], []byte("needle"))
	l, _ := w.server.Listen(80)
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write(body)
			c.Close()
		}
	}
	c, _ := w.client.Dial(inet.MustParseHostPort("10.0.0.254:10101"))
	var got []byte
	c.OnConnect = func() { _ = c.Write([]byte("GET")) }
	c.OnData = func(b []byte) { got = append(got, b...) }
	w.k.RunUntil(sim.Minute)
	if len(got) != len(body) {
		t.Fatalf("relayed %d/%d bytes", len(got), len(body))
	}
	if !bytes.Contains(got, []byte("NEEDLE")) {
		t.Fatal("replacement not applied in large body")
	}
	if w.proxy.Connections != 1 {
		t.Fatalf("Connections = %d", w.proxy.Connections)
	}
}

func TestProxyUpstreamRefusedAbortsClient(t *testing.T) {
	w := newProxyWorld(t, Config{Rules: nil})
	// No server listening on 10.0.0.80:80.
	c, _ := w.client.Dial(inet.MustParseHostPort("10.0.0.254:10101"))
	var closeErr error
	gotClose := false
	c.OnClose = func(err error) { gotClose = true; closeErr = err }
	c.OnConnect = func() { _ = c.Write([]byte("GET")) }
	w.k.RunUntil(20 * sim.Second)
	if !gotClose {
		t.Fatal("client not torn down when upstream refused")
	}
	_ = closeErr
}

// ParseRule must never panic on arbitrary rule strings.
func TestQuickParseRuleNoPanic(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseRule(s)
		_, _ = ParseRule("s/" + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
