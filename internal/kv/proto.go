package kv

// The wire protocol: RESP-style, inline commands, typed replies.
//
// Requests are single text lines, space-separated, newline-terminated
// (\n, optional preceding \r):
//
//	PING
//	GET <key>
//	SET <key> <val>
//	DEL <key>
//	MGET <key> ...
//	MSET <key> <val> ...
//	SCAN <lo> <hi> <limit>
//
// Keys and values are signed 64-bit integers in decimal; keys (and the
// SCAN limit) must also fit the server's platform int — vacuous on
// 64-bit hosts, a -ERR on 32-bit ones, never a silent truncation.
// Replies use the RESP type sigils:
//
//	+OK\r\n  +PONG\r\n      simple strings (SET, MSET, PING)
//	:<n>\r\n               integers (GET hit, DEL count, array elements)
//	$-1\r\n                nil (GET/MGET miss)
//	*<n>\r\n               array header (MGET: n values; SCAN: 2n,
//	                       alternating key, value)
//	-ERR <msg>\r\n         errors
//
// Parsing and encoding are allocation-free: requests parse into a
// caller-owned request struct, replies append into a caller-owned byte
// buffer. Pipelining falls out — a client may write any number of
// request lines before reading; the server answers in order.

import (
	"errors"
	"strconv"
)

// Parse errors (preallocated; the reply path sends err.Error()).
var (
	errEmpty    = errors.New("empty command")
	errUnknown  = errors.New("unknown command")
	errArgCount = errors.New("wrong number of arguments")
	errBadInt   = errors.New("value is not an integer")
	errTooMany  = errors.New("too many keys")
	errLineLen  = errors.New("request line too long")
	errKeyRange = errors.New("key out of range")
)

// cmdKind discriminates a parsed request.
type cmdKind uint8

const (
	cmdPing cmdKind = iota
	cmdGet
	cmdSet
	cmdDel
	cmdMGet
	cmdMSet
	cmdScan
)

// request is one parsed command, staged into fixed storage.
type request struct {
	cmd    cmdKind
	key    int64
	val    int64
	lo, hi int64
	limit  int
	nk     int
	keys   [MaxMultiKeys]int64
	vals   [MaxMultiKeys]int64
}

// parseInt64 parses a signed decimal from b without allocating.
func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	if len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// nextField advances past leading spaces and returns the next
// space-delimited token and the remainder.
func nextField(b []byte) (tok, rest []byte) {
	for len(b) > 0 && b[0] == ' ' {
		b = b[1:]
	}
	i := 0
	for i < len(b) && b[i] != ' ' {
		i++
	}
	return b[:i], b[i:]
}

// eqFold reports ASCII-case-insensitive equality of tok with the
// uppercase literal cmd.
func eqFold(tok []byte, cmd string) bool {
	if len(tok) != len(cmd) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != cmd[i] {
			return false
		}
	}
	return true
}

// parseRequest parses one request line (no trailing newline; a trailing
// \r is tolerated) into req. It allocates nothing.
func parseRequest(line []byte, req *request) error {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	tok, rest := nextField(line)
	if len(tok) == 0 {
		return errEmpty
	}
	// ints pulls exactly want decimal fields from rest into out.
	ints := func(out []int64, want int) error {
		for i := 0; i < want; i++ {
			var f []byte
			f, rest = nextField(rest)
			if len(f) == 0 {
				return errArgCount
			}
			v, ok := parseInt64(f)
			if !ok {
				return errBadInt
			}
			out[i] = v
		}
		return nil
	}
	done := func() error {
		if f, _ := nextField(rest); len(f) != 0 {
			return errArgCount
		}
		return nil
	}
	switch {
	case eqFold(tok, "GET"):
		req.cmd = cmdGet
		var a [1]int64
		if err := ints(a[:], 1); err != nil {
			return err
		}
		req.key = a[0]
		if !keyFits(req.key) {
			return errKeyRange
		}
		return done()
	case eqFold(tok, "SET"):
		req.cmd = cmdSet
		var a [2]int64
		if err := ints(a[:], 2); err != nil {
			return err
		}
		req.key, req.val = a[0], a[1]
		if !keyFits(req.key) {
			return errKeyRange
		}
		return done()
	case eqFold(tok, "DEL"):
		req.cmd = cmdDel
		var a [1]int64
		if err := ints(a[:], 1); err != nil {
			return err
		}
		req.key = a[0]
		if !keyFits(req.key) {
			return errKeyRange
		}
		return done()
	case eqFold(tok, "MGET"):
		req.cmd = cmdMGet
		req.nk = 0
		for {
			var f []byte
			f, rest = nextField(rest)
			if len(f) == 0 {
				break
			}
			if req.nk == MaxMultiKeys {
				return errTooMany
			}
			v, ok := parseInt64(f)
			if !ok {
				return errBadInt
			}
			if !keyFits(v) {
				return errKeyRange
			}
			req.keys[req.nk] = v
			req.nk++
		}
		if req.nk == 0 {
			return errArgCount
		}
		return nil
	case eqFold(tok, "MSET"):
		req.cmd = cmdMSet
		req.nk = 0
		for {
			var f []byte
			f, rest = nextField(rest)
			if len(f) == 0 {
				break
			}
			if req.nk == MaxMultiKeys {
				return errTooMany
			}
			k, ok := parseInt64(f)
			if !ok {
				return errBadInt
			}
			if !keyFits(k) {
				return errKeyRange
			}
			f, rest = nextField(rest)
			if len(f) == 0 {
				return errArgCount // key without value
			}
			v, ok := parseInt64(f)
			if !ok {
				return errBadInt
			}
			req.keys[req.nk], req.vals[req.nk] = k, v
			req.nk++
		}
		if req.nk == 0 {
			return errArgCount
		}
		return nil
	case eqFold(tok, "SCAN"):
		req.cmd = cmdScan
		var a [3]int64
		if err := ints(a[:], 3); err != nil {
			return err
		}
		// limit shares the int conversion, so it gets the same range
		// guard as the keys (a truncated limit would silently change the
		// request on a 32-bit platform).
		if !keyFits(a[0]) || !keyFits(a[1]) || !keyFits(a[2]) {
			return errKeyRange
		}
		req.lo, req.hi, req.limit = a[0], a[1], int(a[2])
		return done()
	case eqFold(tok, "PING"):
		req.cmd = cmdPing
		return done()
	}
	return errUnknown
}

// Reply encoders: each appends one RESP reply to dst and returns the
// extended slice. Callers reuse dst across replies, so the steady state
// allocates nothing.

func appendSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

func appendInt(dst []byte, v int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, '\r', '\n')
}

func appendNil(dst []byte) []byte {
	return append(dst, '$', '-', '1', '\r', '\n')
}

func appendArray(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

func appendError(dst []byte, msg string) []byte {
	dst = append(dst, '-', 'E', 'R', 'R', ' ')
	dst = append(dst, msg...)
	return append(dst, '\r', '\n')
}
