package kv

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseCases is the protocol parse table: every command form, case
// folding, \r tolerance, and every rejection. TestParseRequest checks it;
// FuzzParseRequest starts from its lines.
var parseCases = []struct {
	name  string
	line  string
	err   error
	check func(t *testing.T, r *request)
}{
	{"ping", "PING", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdPing {
			t.Fatalf("cmd = %d", r.cmd)
		}
	}},
	{"ping lowercase", "ping", nil, nil},
	{"get", "GET 42", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdGet || r.key != 42 {
			t.Fatalf("%+v", r)
		}
	}},
	{"get negative key", "GET -7", nil, func(t *testing.T, r *request) {
		if r.key != -7 {
			t.Fatalf("key = %d", r.key)
		}
	}},
	{"get trailing cr", "GET 42\r", nil, func(t *testing.T, r *request) {
		if r.key != 42 {
			t.Fatalf("key = %d", r.key)
		}
	}},
	{"get extra spaces", "GET   42  ", nil, func(t *testing.T, r *request) {
		if r.key != 42 {
			t.Fatalf("key = %d", r.key)
		}
	}},
	{"set", "SET 1 -2", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdSet || r.key != 1 || r.val != -2 {
			t.Fatalf("%+v", r)
		}
	}},
	{"del", "del 9", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdDel || r.key != 9 {
			t.Fatalf("%+v", r)
		}
	}},
	{"mget", "MGET 1 2 3", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdMGet || r.nk != 3 || r.keys[2] != 3 {
			t.Fatalf("%+v", r)
		}
	}},
	{"mset", "MSET 1 10 2 20", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdMSet || r.nk != 2 || r.keys[1] != 2 || r.vals[1] != 20 {
			t.Fatalf("%+v", r)
		}
	}},
	{"scan", "SCAN 0 100 10", nil, func(t *testing.T, r *request) {
		if r.cmd != cmdScan || r.lo != 0 || r.hi != 100 || r.limit != 10 {
			t.Fatalf("%+v", r)
		}
	}},
	{"min int64", "GET -9223372036854775808", nil, func(t *testing.T, r *request) {
		if r.key != -1<<63 {
			t.Fatalf("key = %d", r.key)
		}
	}},
	{"empty", "", errEmpty, nil},
	{"spaces only", "   ", errEmpty, nil},
	{"unknown", "HELLO", errUnknown, nil},
	{"get no key", "GET", errArgCount, nil},
	{"get two keys", "GET 1 2", errArgCount, nil},
	{"set one arg", "SET 1", errArgCount, nil},
	{"set extra arg", "SET 1 2 3", errArgCount, nil},
	{"mget empty", "MGET", errArgCount, nil},
	{"mset odd args", "MSET 1 10 2", errArgCount, nil},
	{"scan short", "SCAN 0 100", errArgCount, nil},
	{"bad int", "GET abc", errBadInt, nil},
	{"overflow", "GET 99999999999999999999", errBadInt, nil},
	{"bare sign", "GET -", errBadInt, nil},
}

func TestParseRequest(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			var req request
			err := parseRequest([]byte(tc.line), &req)
			if err != tc.err {
				t.Fatalf("parse(%q) = %v, want %v", tc.line, err, tc.err)
			}
			if tc.check != nil && err == nil {
				tc.check(t, &req)
			}
		})
	}
}

// TestParseTooManyKeys: the parser enforces MaxMultiKeys.
func TestParseTooManyKeys(t *testing.T) {
	var line bytes.Buffer
	line.WriteString("MGET")
	for i := 0; i <= MaxMultiKeys; i++ {
		line.WriteString(" 1")
	}
	var req request
	if err := parseRequest(line.Bytes(), &req); err != errTooMany {
		t.Fatalf("err = %v, want %v", err, errTooMany)
	}
}

// TestReplyEncoders checks the exact wire bytes of every reply shape.
func TestReplyEncoders(t *testing.T) {
	cases := []struct {
		got  []byte
		want string
	}{
		{appendSimple(nil, "OK"), "+OK\r\n"},
		{appendInt(nil, 0), ":0\r\n"},
		{appendInt(nil, -42), ":-42\r\n"},
		{appendInt(nil, 1<<63-1), ":9223372036854775807\r\n"},
		{appendInt(nil, -1<<63), ":-9223372036854775808\r\n"},
		{appendNil(nil), "$-1\r\n"},
		{appendArray(nil, 3), "*3\r\n"},
		{appendError(nil, "boom"), "-ERR boom\r\n"},
	}
	for _, tc := range cases {
		if string(tc.got) != tc.want {
			t.Errorf("encoded %q, want %q", tc.got, tc.want)
		}
	}
}

// TestIntegersOnTheWire: every integer the wire carries — reply values,
// request keys and values — is written exactly as strconv.FormatInt
// renders it, parses back to itself, and is appended without allocating.
func TestIntegersOnTheWire(t *testing.T) {
	vals := []int64{
		0, 1, -1, 9, 10, -10, 99, 100, 12345, -98765,
		1e9, -1e18, 1<<62 + 7, math.MaxInt64, math.MinInt64 + 1, math.MinInt64,
	}
	c := &Client{wbuf: make([]byte, 0, 128)}
	for _, v := range vals {
		s := strconv.FormatInt(v, 10)
		if got := string(appendInt(nil, v)); got != ":"+s+"\r\n" {
			t.Errorf("appendInt(%d) = %q", v, got)
		}
		c.wbuf = c.wbuf[:0]
		c.QueueSet(v, v)
		if got, want := string(c.wbuf), "SET "+s+" "+s+"\n"; got != want {
			t.Errorf("QueueSet(%d) wrote %q, want %q", v, got, want)
		}
		if got, ok := parseInt64([]byte(s)); !ok || got != v {
			t.Errorf("parseInt64(%q) = %d, %v", s, got, ok)
		}
		buf := make([]byte, 0, 32)
		if n := testing.AllocsPerRun(100, func() { buf = appendInt(buf[:0], v) }); n != 0 {
			t.Errorf("appendInt(%d) allocates %.1f per run", v, n)
		}
	}
}

// TestProtoRoundTrip: every request the client queues must parse back to
// the same staged request — the two ends share one grammar.
func TestProtoRoundTrip(t *testing.T) {
	c := &Client{wbuf: make([]byte, 0, 256)}
	c.QueueSet(-3, 77)
	c.QueueGet(-3)
	c.QueueMSet([]int64{1, 2}, []int64{10, 20})
	c.QueueMGet([]int64{1, 2, 3})
	c.QueueScan(0, 50, 5)
	c.QueueDel(1)
	c.QueuePing()
	lines := bytes.Split(bytes.TrimSuffix(c.wbuf, []byte("\n")), []byte("\n"))
	wantCmds := []cmdKind{cmdSet, cmdGet, cmdMSet, cmdMGet, cmdScan, cmdDel, cmdPing}
	if len(lines) != len(wantCmds) {
		t.Fatalf("queued %d lines, want %d", len(lines), len(wantCmds))
	}
	for i, line := range lines {
		var req request
		if err := parseRequest(line, &req); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if req.cmd != wantCmds[i] {
			t.Fatalf("line %d parsed as cmd %d, want %d", i, req.cmd, wantCmds[i])
		}
	}
}

// requeue encodes a parsed request the way a client would send it.
func requeue(c *Client, r *request) {
	switch r.cmd {
	case cmdPing:
		c.QueuePing()
	case cmdGet:
		c.QueueGet(r.key)
	case cmdSet:
		c.QueueSet(r.key, r.val)
	case cmdDel:
		c.QueueDel(r.key)
	case cmdMGet:
		c.QueueMGet(r.keys[:r.nk])
	case cmdMSet:
		c.QueueMSet(r.keys[:r.nk], r.vals[:r.nk])
	case cmdScan:
		c.QueueScan(r.lo, r.hi, r.limit)
	}
}

// FuzzParseRequest: whatever bytes a client sends, parseRequest returns —
// no panic, no key staged past MaxMultiKeys (the arrays are that long, so an
// overrun would be an index panic) — and a line it accepts means what the
// client's own encoding of the parsed request means.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range parseCases {
		f.Add([]byte(tc.line))
	}
	f.Add([]byte("MGET" + strings.Repeat(" 1", MaxMultiKeys+1)))
	f.Add([]byte("MSET" + strings.Repeat(" 1 2", MaxMultiKeys+1)))
	f.Fuzz(func(t *testing.T, line []byte) {
		var req request
		if parseRequest(line, &req) != nil {
			return
		}
		if req.nk < 0 || req.nk > MaxMultiKeys {
			t.Fatalf("parse(%q) staged %d keys", line, req.nk)
		}
		var c Client
		requeue(&c, &req)
		var again request
		if err := parseRequest(bytes.TrimSuffix(c.wbuf, []byte("\n")), &again); err != nil {
			t.Fatalf("parse(%q) accepted, its re-encoding %q rejected: %v", line, c.wbuf, err)
		}
		if again != req {
			t.Fatalf("parse(%q) = %+v, its re-encoding %q parses as %+v", line, req, c.wbuf, again)
		}
	})
}

// reencode renders a decoded reply with the server's own encoders.
func reencode(rep *Reply) []byte {
	switch rep.Kind {
	case ReplySimple:
		return appendSimple(nil, "OK")
	case ReplyInt:
		return appendInt(nil, rep.Int)
	case ReplyNil:
		return appendNil(nil)
	case ReplyError:
		return appendError(nil, rep.Msg)
	}
	b := appendArray(nil, len(rep.Vals))
	for i, v := range rep.Vals {
		if rep.Present[i] {
			b = appendInt(b, v)
		} else {
			b = appendNil(b)
		}
	}
	return b
}

// FuzzReadReply: whatever bytes a server sends, ReadReply returns a reply
// or an error — no panic, no scratch sized by the peer — and a reply it
// accepts survives re-encoding with the server's encoders unchanged.
func FuzzReadReply(f *testing.F) {
	f.Add(appendSimple(nil, "PONG"))
	f.Add(appendInt(nil, -1<<63))
	f.Add(appendNil(nil))
	f.Add(appendError(nil, errKeyRange.Error()))
	f.Add(appendNil(appendInt(appendArray(nil, 2), 7)))
	f.Add([]byte("*2\r\n:1\r\n"))
	f.Fuzz(func(t *testing.T, wire []byte) {
		read := func(b []byte) (Reply, error) {
			c := Client{r: bufio.NewReaderSize(bytes.NewReader(b), connBufSize)}
			var rep Reply
			err := c.ReadReply(&rep)
			if cap(c.vals) > maxReplyElems {
				t.Fatalf("reply %q grew the scratch to %d elements", b, cap(c.vals))
			}
			return rep, err
		}
		rep, err := read(wire)
		if err != nil {
			return
		}
		again, err := read(reencode(&rep))
		if err != nil {
			t.Fatalf("reply %q decoded as %+v, its re-encoding rejected: %v", wire, rep, err)
		}
		if again.Kind != rep.Kind || again.Int != rep.Int || again.Msg != rep.Msg ||
			!slices.Equal(again.Vals, rep.Vals) || !slices.Equal(again.Present, rep.Present) {
			t.Fatalf("reply %q decoded as %+v, its re-encoding as %+v", wire, rep, again)
		}
	})
}
