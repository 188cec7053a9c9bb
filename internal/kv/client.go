package kv

import (
	"bufio"
	"errors"
	"net"
	"strconv"
)

// Client speaks the kv wire protocol over one connection. It is
// explicitly pipelined: Queue* methods append request lines to a local
// buffer, Flush writes them in one syscall, ReadReply consumes replies
// in request order. A Client is single-goroutine; the queue and reply
// scratch are reused, so the steady state allocates nothing.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	wbuf []byte
	// reply scratch, reused across ReadReply calls
	vals    []int64
	present []bool
}

// ReplyKind discriminates a Reply.
type ReplyKind uint8

const (
	ReplySimple ReplyKind = iota // +OK, +PONG
	ReplyInt                     // :n
	ReplyNil                     // $-1
	ReplyArray                   // *n with elements in Vals/Present
	ReplyError                   // -ERR ...
)

// Reply is one decoded server reply. Vals, Present and Msg alias
// client-owned scratch: valid until the next ReadReply.
type Reply struct {
	Kind    ReplyKind
	Int     int64   // ReplyInt value
	Vals    []int64 // ReplyArray elements (0 for nil elements)
	Present []bool  // ReplyArray element non-nil flags
	Msg     string  // ReplyError text (allocates; errors are off the hot path)
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, connBufSize),
		wbuf: make([]byte, 0, connBufSize),
	}
}

// Dial connects to a kv server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Queue* append one request line each. Flush sends the batch.

func (c *Client) QueuePing() { c.wbuf = append(c.wbuf, "PING\n"...) }

func (c *Client) QueueGet(key int64) {
	c.wbuf = append(c.wbuf, "GET "...)
	c.wbuf = strconv.AppendInt(c.wbuf, key, 10)
	c.wbuf = append(c.wbuf, '\n')
}

func (c *Client) QueueSet(key, val int64) {
	c.wbuf = append(c.wbuf, "SET "...)
	c.wbuf = strconv.AppendInt(c.wbuf, key, 10)
	c.wbuf = append(c.wbuf, ' ')
	c.wbuf = strconv.AppendInt(c.wbuf, val, 10)
	c.wbuf = append(c.wbuf, '\n')
}

func (c *Client) QueueDel(key int64) {
	c.wbuf = append(c.wbuf, "DEL "...)
	c.wbuf = strconv.AppendInt(c.wbuf, key, 10)
	c.wbuf = append(c.wbuf, '\n')
}

func (c *Client) QueueMGet(keys []int64) {
	c.wbuf = append(c.wbuf, "MGET"...)
	for _, k := range keys {
		c.wbuf = append(c.wbuf, ' ')
		c.wbuf = strconv.AppendInt(c.wbuf, k, 10)
	}
	c.wbuf = append(c.wbuf, '\n')
}

func (c *Client) QueueMSet(keys, vals []int64) {
	c.wbuf = append(c.wbuf, "MSET"...)
	for i, k := range keys {
		c.wbuf = append(c.wbuf, ' ')
		c.wbuf = strconv.AppendInt(c.wbuf, k, 10)
		c.wbuf = append(c.wbuf, ' ')
		c.wbuf = strconv.AppendInt(c.wbuf, vals[i], 10)
	}
	c.wbuf = append(c.wbuf, '\n')
}

func (c *Client) QueueScan(lo, hi int64, limit int) {
	c.wbuf = append(c.wbuf, "SCAN "...)
	c.wbuf = strconv.AppendInt(c.wbuf, lo, 10)
	c.wbuf = append(c.wbuf, ' ')
	c.wbuf = strconv.AppendInt(c.wbuf, hi, 10)
	c.wbuf = append(c.wbuf, ' ')
	c.wbuf = strconv.AppendInt(c.wbuf, int64(limit), 10)
	c.wbuf = append(c.wbuf, '\n')
}

// Flush writes every queued request in one syscall.
func (c *Client) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

var errProto = errors.New("kv: malformed reply")

// maxReplyElems is the longest array a server sends: a SCAN over a full
// MaxScanSpan, key and value per hit. A longer header is a protocol error,
// so a hostile *<n> cannot size the client's scratch.
const maxReplyElems = 2 * MaxScanSpan

// readLine returns the next reply line without its \r\n.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// ReadReply decodes the next reply into rep. Vals/Present alias the
// client's scratch.
func (c *Client) ReadReply(rep *Reply) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return errProto
	}
	switch line[0] {
	case '+':
		rep.Kind = ReplySimple
		return nil
	case '-':
		rep.Kind = ReplyError
		msg := line[1:]
		if len(msg) >= 4 && string(msg[:4]) == "ERR " {
			msg = msg[4:]
		}
		rep.Msg = string(msg)
		return nil
	case ':':
		v, ok := parseInt64(line[1:])
		if !ok {
			return errProto
		}
		rep.Kind, rep.Int = ReplyInt, v
		return nil
	case '$':
		if string(line[1:]) != "-1" {
			return errProto
		}
		rep.Kind = ReplyNil
		return nil
	case '*':
		n64, ok := parseInt64(line[1:])
		if !ok || n64 < 0 || n64 > maxReplyElems {
			return errProto
		}
		n := int(n64)
		if cap(c.vals) < n {
			c.vals = make([]int64, n)
			c.present = make([]bool, n)
		}
		c.vals, c.present = c.vals[:n], c.present[:n]
		for i := 0; i < n; i++ {
			el, err := c.readLine()
			if err != nil {
				return err
			}
			switch {
			case len(el) > 1 && el[0] == ':':
				v, ok := parseInt64(el[1:])
				if !ok {
					return errProto
				}
				c.vals[i], c.present[i] = v, true
			case string(el) == "$-1":
				c.vals[i], c.present[i] = 0, false
			default:
				return errProto
			}
		}
		rep.Kind, rep.Vals, rep.Present = ReplyArray, c.vals, c.present
		return nil
	}
	return errProto
}
