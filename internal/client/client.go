// Package client is the one wire client for shareserver's line protocol
// (internal/server): a retrying connection that sends one command at a
// time and reads its one-line reply. The stress harness and the shareload
// command both drive the server through it.
//
// Transient transport failures (connection reset, server restart) are
// retried with bounded exponential backoff instead of failing the caller:
// the connection is redialed, USE re-issued for the selected tenant, and
// the in-flight command re-sent, up to RetryMax attempts. Backoff jitter
// draws from a dedicated seeded rng so runs stay deterministic.
package client

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"
)

// Bounded retry budget: base 2ms doubling per attempt plus seeded jitter.
const (
	RetryMax  = 3
	RetryBase = 2 * time.Millisecond
)

// Conn is a retrying connection to one server. It is not safe for
// concurrent use; each worker owns its own.
type Conn struct {
	addr string
	// Tenant, once set, is re-selected with USE after every redial.
	Tenant string
	// Retries counts transport errors recovered by redial + replay, and
	// the attempts spent before an exhausted retry gives up.
	Retries int
	// RetriedLast reports whether the last successful Do replayed the
	// command on a fresh connection. The first attempt may or may not
	// have been applied before the transport died, so non-idempotent
	// callers (DEL) must not hold the reply against their model.
	RetriedLast bool

	conn net.Conn
	r    *bufio.Reader
	rng  *rand.Rand // backoff jitter only, separate from any op mix
}

// New returns an unconnected Conn for addr; the first Do dials. jitterSeed
// seeds the backoff jitter.
func New(addr string, jitterSeed int64) *Conn {
	return &Conn{addr: addr, rng: rand.New(rand.NewSource(jitterSeed))}
}

func (c *Conn) redial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	r := bufio.NewReader(conn)
	if c.Tenant != "" {
		if _, err := fmt.Fprintf(conn, "USE %s\n", c.Tenant); err != nil {
			conn.Close()
			return err
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			conn.Close()
			return err
		}
		if strings.TrimRight(resp, "\n") != "OK" {
			conn.Close()
			return fmt.Errorf("re-USE %s: %s", c.Tenant, resp)
		}
	}
	c.conn, c.r = conn, r
	return nil
}

func (c *Conn) roundTrip(line string) (string, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\n"), nil
}

// Do sends one command and reads its reply, retrying transport errors
// with bounded exponential backoff. Server-level ERR replies are returned
// to the caller — only the transport is retried. ok is false when the
// retry budget ran out without a reply.
func (c *Conn) Do(line string) (resp string, ok bool) {
	c.RetriedLast = false
	for attempt := 0; ; attempt++ {
		if c.conn == nil {
			if err := c.redial(); err != nil {
				if attempt >= RetryMax {
					return "", false
				}
				c.backoff(attempt)
				continue
			}
		}
		resp, err := c.roundTrip(line)
		if err == nil {
			c.RetriedLast = attempt > 0
			return resp, true
		}
		c.conn.Close()
		c.conn = nil
		if attempt >= RetryMax {
			return "", false
		}
		c.backoff(attempt)
	}
}

func (c *Conn) backoff(attempt int) {
	c.Retries++
	d := RetryBase << attempt
	d += time.Duration(c.rng.Int63n(int64(RetryBase)))
	time.Sleep(d)
}

// Close closes the current connection, if any.
func (c *Conn) Close() {
	if c.conn != nil {
		c.conn.Close()
	}
}
