// Package netsed reimplements M. Zalewski's netsed, the userspace TCP proxy
// the paper uses to rewrite the victim's software-download page in flight
// (Figure 2): it listens on a local port (fed by the Netfilter DNAT rule),
// connects onward to the real destination, and applies s/from/to rules to
// the stream.
//
// The paper notes (§4.2) that "netsed will not match strings that cross
// packet boundaries" and that this "could easily be addressed by someone
// with malicious intent". Both behaviours are implemented: ChunkRewriter is
// the paper-faithful per-segment matcher, StreamRewriter carries state
// across segments and never misses. Experiment E2b quantifies the
// difference.
package netsed

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/inet"
	"repro/internal/tcp"
)

// Rule is one substitution. Patterns are fixed byte strings (netsed is not a
// regex engine). MaxHits 0 means unlimited.
type Rule struct {
	From, To []byte
	MaxHits  int
	// Hits counts applied substitutions.
	Hits int
}

// ParseRule parses netsed's rule syntax "s/from/to[/maxhits]" with %XX
// URL-style escapes (the paper uses %2f to embed slashes).
func ParseRule(s string) (*Rule, error) {
	if !strings.HasPrefix(s, "s/") {
		return nil, fmt.Errorf("netsed: rule %q does not start with s/", s)
	}
	parts := strings.Split(s[2:], "/")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("netsed: rule %q must be s/from/to[/maxhits]", s)
	}
	from, err := unescape(parts[0])
	if err != nil {
		return nil, err
	}
	to, err := unescape(parts[1])
	if err != nil {
		return nil, err
	}
	if len(from) == 0 {
		return nil, fmt.Errorf("netsed: empty pattern in %q", s)
	}
	r := &Rule{From: from, To: to}
	if len(parts) == 3 {
		if _, err := fmt.Sscanf(parts[2], "%d", &r.MaxHits); err != nil || r.MaxHits < 1 {
			return nil, fmt.Errorf("netsed: bad maxhits in %q", s)
		}
	}
	return r, nil
}

func unescape(s string) ([]byte, error) {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '%' {
			if i+2 >= len(s) {
				return nil, fmt.Errorf("netsed: truncated %%XX escape in %q", s)
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("netsed: bad %%XX escape in %q", s)
			}
			out = append(out, hi<<4|lo)
			i += 2
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Rewriter transforms a byte stream chunk by chunk. Flush returns any held
// tail when the stream ends.
type Rewriter interface {
	Rewrite(chunk []byte) []byte
	Flush() []byte
}

// ChunkRewriter applies rules within each chunk independently — original
// netsed behaviour. Patterns spanning chunk (TCP segment) boundaries are
// missed; the paper calls this out as a limitation of its proof of concept.
type ChunkRewriter struct {
	rules []*Rule
}

// NewChunkRewriter builds a paper-faithful rewriter. The rules are used (and
// their hit counters advanced) in order.
func NewChunkRewriter(rules []*Rule) *ChunkRewriter { return &ChunkRewriter{rules: rules} }

// Rewrite implements Rewriter.
func (c *ChunkRewriter) Rewrite(chunk []byte) []byte {
	return applyRules(c.rules, chunk)
}

// Flush implements Rewriter (chunk mode holds nothing back).
func (c *ChunkRewriter) Flush() []byte { return nil }

// StreamRewriter applies rules across chunk boundaries by withholding the
// longest possible pattern prefix at each chunk's tail — the "easily
// addressed" fix the paper anticipates.
type StreamRewriter struct {
	rules []*Rule
	held  []byte
	// maxPat is the longest pattern; the rewriter holds back up to
	// maxPat-1 bytes between chunks.
	maxPat int
}

// NewStreamRewriter builds a boundary-safe rewriter.
func NewStreamRewriter(rules []*Rule) *StreamRewriter {
	maxPat := 0
	for _, r := range rules {
		if len(r.From) > maxPat {
			maxPat = len(r.From)
		}
	}
	return &StreamRewriter{rules: rules, maxPat: maxPat}
}

// Rewrite implements Rewriter.
func (s *StreamRewriter) Rewrite(chunk []byte) []byte {
	buf := append(s.held, chunk...)
	s.held = nil
	out := applyRules(s.rules, buf)
	// Hold back the longest suffix of out that is a proper prefix of any
	// pattern, so a split match can complete next chunk.
	hold := 0
	for _, r := range s.rules {
		if r.MaxHits > 0 && r.Hits >= r.MaxHits {
			continue
		}
		limit := len(r.From) - 1
		if limit > len(out) {
			limit = len(out)
		}
		for n := limit; n > hold; n-- {
			if bytes.Equal(out[len(out)-n:], r.From[:n]) {
				hold = n
				break
			}
		}
	}
	if hold > 0 {
		s.held = append([]byte(nil), out[len(out)-hold:]...)
		out = out[:len(out)-hold]
	}
	return out
}

// Flush implements Rewriter.
func (s *StreamRewriter) Flush() []byte {
	out := s.held
	s.held = nil
	return out
}

// applyRules performs in-order fixed-string substitution respecting MaxHits.
// Scanning resumes after each replacement (netsed's behaviour), so a
// replacement containing its own pattern — like splicing markup after a tag
// — cannot loop.
func applyRules(rules []*Rule, b []byte) []byte {
	for _, r := range rules {
		if r.MaxHits > 0 && r.Hits >= r.MaxHits {
			continue
		}
		from := 0
		for from <= len(b)-len(r.From) {
			i := bytes.Index(b[from:], r.From)
			if i < 0 {
				break
			}
			at := from + i
			nb := make([]byte, 0, len(b)-len(r.From)+len(r.To))
			nb = append(nb, b[:at]...)
			nb = append(nb, r.To...)
			nb = append(nb, b[at+len(r.From):]...)
			b = nb
			from = at + len(r.To)
			r.Hits++
			if r.MaxHits > 0 && r.Hits >= r.MaxHits {
				break
			}
		}
	}
	return b
}

// Proxy is the netsed process: it accepts TCP connections on a local port
// and splices each one to a fixed upstream destination, rewriting the
// server's replies to the client (netsed rewrites both directions; the
// paper's attack needs only this one). The command line from the paper —
//
//	netsed tcp 10101 Target-IP 80 s/href=file.tgz/.../ s/REALMD5SUM/FAKEMD5SUM
//
// maps to Config{ListenPort: 10101, Upstream: Target-IP:80, Rules: ...}.
type Proxy struct {
	tcpStack *tcp.Stack
	cfg      Config

	// Connections counts accepted client connections; BytesRewritten is
	// total traffic relayed client-ward after rewriting.
	Connections    uint64
	BytesRelayed   uint64
	ReplacementsIn int // rewrites applied on upstream->client data
}

// Config configures a Proxy.
type Config struct {
	ListenPort inet.Port
	Upstream   inet.HostPort
	Rules      []string
	// Streaming selects the boundary-safe rewriter (paper's suggested
	// improvement); false reproduces original netsed's per-segment
	// matching.
	Streaming bool
}

// Start launches the proxy on the host's TCP stack.
func Start(t *tcp.Stack, cfg Config) (*Proxy, error) {
	p := &Proxy{tcpStack: t, cfg: cfg}
	l, err := t.Listen(cfg.ListenPort)
	if err != nil {
		return nil, err
	}
	l.OnAccept = p.onAccept
	return p, nil
}

// newRewriter parses this proxy's rules into a fresh per-connection
// rewriter (each connection gets independent hit counters, like netsed).
func (p *Proxy) newRewriter() (Rewriter, []*Rule, error) {
	rules := make([]*Rule, 0, len(p.cfg.Rules))
	for _, s := range p.cfg.Rules {
		r, err := ParseRule(s)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, r)
	}
	if p.cfg.Streaming {
		return NewStreamRewriter(rules), rules, nil
	}
	return NewChunkRewriter(rules), rules, nil
}

func (p *Proxy) onAccept(client *tcp.Conn) {
	p.Connections++
	down, rules, err := p.newRewriter()
	if err != nil {
		client.Abort()
		return
	}
	server, err := p.tcpStack.Dial(p.cfg.Upstream)
	if err != nil {
		client.Abort()
		return
	}
	var pendingToServer [][]byte
	serverUp := false

	client.OnData = func(b []byte) {
		if !serverUp {
			pendingToServer = append(pendingToServer, append([]byte(nil), b...))
			return
		}
		_ = server.Write(b)
	}
	client.OnEOF = func() {
		if serverUp {
			server.Close()
		}
	}
	client.OnClose = func(err error) {
		if err != nil {
			server.Abort()
		}
	}

	server.OnConnect = func() {
		serverUp = true
		for _, b := range pendingToServer {
			_ = server.Write(b)
		}
		pendingToServer = nil
	}
	server.OnData = func(b []byte) {
		before := 0
		for _, r := range rules {
			before += r.Hits
		}
		out := down.Rewrite(b)
		p.BytesRelayed += uint64(len(out))
		after := 0
		for _, r := range rules {
			after += r.Hits
		}
		p.ReplacementsIn += after - before
		if len(out) > 0 {
			_ = client.Write(out)
		}
	}
	server.OnEOF = func() {
		if tail := down.Flush(); len(tail) > 0 {
			_ = client.Write(tail)
		}
		client.Close()
	}
	server.OnClose = func(err error) {
		if err != nil {
			client.Abort()
		}
	}
}
