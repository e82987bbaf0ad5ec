// Package registry implements lease-based broker self-registration: the
// membership half of a replicated broker tier and the only way a broker
// tells a front end its load. Each brokerd process announces the services it
// hosts to a front end's UDP listener and keeps the claim alive by renewing a
// TTL lease. A reconciliation loop on the front end expires leases whose
// broker stopped renewing — a crashed or partitioned broker silently falls
// out of the pool — and re-admits brokers that come back.
//
// The control datagrams a front end's listener accepts are single text
// lines, parsed strictly (reject, don't clamp) by the one fuzzed parser in
// this package:
//
//	REGISTER   <service> <addr> <ttl_ms> <outstanding> <threshold> <queuelen> <hot|cool>
//	RENEW      <service> <addr> <ttl_ms> <outstanding> <threshold> <queuelen> <hot|cool>
//	DEREGISTER <service> <addr>
//
// REGISTER and RENEW carry the broker's current load summary, so the front
// end's health-weighted member selection and the centralized model's
// admission check both work from data no older than one renewal interval,
// with no separate reporting channel. A plain-text format keeps the listener
// thread cheap — the paper notes the centralized model's scalability hinges
// on how little work per update the listener does.
package registry

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"servicebroker/internal/broker"
)

// Verb is a control command's action.
type Verb int

// Control verbs.
const (
	// VerbRegister claims (or re-claims) pool membership with a fresh lease.
	VerbRegister Verb = iota + 1
	// VerbRenew extends an existing lease; an unknown member is admitted as
	// if it had registered (a front-end restart must not drop the pool).
	VerbRenew
	// VerbDeregister withdraws a member immediately (graceful shutdown).
	VerbDeregister
)

// String names the verb in its wire spelling.
func (v Verb) String() string {
	switch v {
	case VerbRegister:
		return "REGISTER"
	case VerbRenew:
		return "RENEW"
	case VerbDeregister:
		return "DEREGISTER"
	default:
		return fmt.Sprintf("verb(%d)", int(v))
	}
}

// Command is one parsed control datagram.
type Command struct {
	Verb    Verb
	Service string
	// Addr is the member's gateway address ("host:port") as the broker
	// advertises it — the address the front end dials to reach it.
	Addr string
	// TTL is the lease duration granted by a REGISTER/RENEW; zero otherwise.
	TTL time.Duration
	// Load is the load summary REGISTER/RENEW carry (Service is filled
	// from the command); zero for DEREGISTER.
	Load broker.LoadReport
}

// Bounds the parser enforces. Commands arrive over the listener's
// unauthenticated UDP socket, so a malformed or hostile datagram must never
// perturb pool membership or the load it records: reject rather than clamp.
const (
	maxCommandLine = 512     // the listener reads one byte more (Listen)
	maxServiceName = 128     // generous; real service names are short
	maxMemberAddr  = 256     // host:port; generous for IPv6 literals
	maxCounter     = 1 << 30 // outstanding/threshold/queuelen sanity cap

	// MinTTL and MaxTTL bound acceptable lease durations: a TTL below the
	// renewal resolution would flap membership, one above the cap would keep
	// a dead broker in the pool long past any reasonable failover horizon.
	MinTTL = 10 * time.Millisecond
	MaxTTL = 10 * time.Minute
)

// FormatCommand serializes a command into its datagram line. It is the
// inverse of ParseCommand; the fuzz target checks the round trip.
func FormatCommand(c Command) string {
	if c.Verb == VerbDeregister {
		return fmt.Sprintf("DEREGISTER %s %s", c.Service, c.Addr)
	}
	state := "cool"
	if c.Load.Hot {
		state = "hot"
	}
	return fmt.Sprintf("%s %s %s %d %d %d %d %s", c.Verb, c.Service, c.Addr, c.TTL/time.Millisecond,
		c.Load.Outstanding, c.Load.Threshold, c.Load.QueueLen, state)
}

// parseCounter decodes one non-negative bounded integer field, refusing
// signs so every accepted field re-formats to the identical string.
func parseCounter(s string) (int, error) {
	if s == "" || s[0] == '-' || s[0] == '+' {
		return 0, fmt.Errorf("registry: bad counter %q", s)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n > maxCounter {
		return 0, fmt.Errorf("registry: counter %d out of range", n)
	}
	return n, nil
}

// printable reports whether s is plain printable ASCII: member addresses
// and service names are map keys and are echoed on status pages, so control
// bytes are refused.
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '!' || s[i] > '~' {
			return false
		}
	}
	return len(s) > 0
}

// validAddr applies the member-address shape check: bounded printable ASCII
// containing a single host:port separator with a numeric port. (Brackets
// for IPv6 literals pass the printable check and keep their last colon.)
func validAddr(addr string) bool {
	if len(addr) > maxMemberAddr || !printable(addr) {
		return false
	}
	i := strings.LastIndexByte(addr, ':')
	if i <= 0 || i == len(addr)-1 {
		return false
	}
	_, err := strconv.Atoi(addr[i+1:])
	return err == nil
}

// parseLoad decodes the four load-summary fields
// <outstanding> <threshold> <queuelen> <hot|cool> of a service's report.
func parseLoad(service string, f []string) (broker.LoadReport, error) {
	r := broker.LoadReport{Service: service}
	for i, dst := range []*int{&r.Outstanding, &r.Threshold, &r.QueueLen} {
		n, err := parseCounter(f[i])
		if err != nil {
			return broker.LoadReport{}, err
		}
		*dst = n
	}
	switch f[3] {
	case "hot":
		r.Hot = true
	case "cool":
	default:
		return broker.LoadReport{}, fmt.Errorf("registry: bad state %q", f[3])
	}
	return r, nil
}

// ParseCommand decodes one control datagram. The format is exactly the
// field counts given in the package comment; anything else — wrong field
// count, unknown verb or state, signed or oversized numbers, unprintable
// names, malformed addresses — is rejected so garbage datagrams cannot
// perturb the pool or centralized admission control.
func ParseCommand(line string) (Command, error) {
	if len(line) > maxCommandLine {
		return Command{}, fmt.Errorf("registry: oversized command (%d bytes)", len(line))
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("registry: empty command")
	}
	// REGISTER/RENEW take exactly 8 fields; DEREGISTER takes exactly 3.
	var c Command
	want := 8
	switch fields[0] {
	case "REGISTER":
		c.Verb = VerbRegister
	case "RENEW":
		c.Verb = VerbRenew
	case "DEREGISTER":
		c.Verb, want = VerbDeregister, 3
	default:
		return Command{}, fmt.Errorf("registry: unknown verb %q", fields[0])
	}
	if len(fields) != want {
		return Command{}, fmt.Errorf("registry: bad %s command %q (want %d fields, got %d)",
			c.Verb, line, want, len(fields))
	}
	c.Service = fields[1]
	if len(c.Service) > maxServiceName || !printable(c.Service) {
		return Command{}, fmt.Errorf("registry: bad service name %q", c.Service)
	}
	c.Addr = fields[2]
	if !validAddr(c.Addr) {
		return Command{}, fmt.Errorf("registry: bad member address %q", c.Addr)
	}
	if c.Verb == VerbDeregister {
		return c, nil
	}

	ttlMs, err := parseCounter(fields[3])
	if err != nil {
		return Command{}, fmt.Errorf("registry: bad ttl in %q: %w", line, err)
	}
	c.TTL = time.Duration(ttlMs) * time.Millisecond
	if c.TTL < MinTTL || c.TTL > MaxTTL {
		return Command{}, fmt.Errorf("registry: ttl %v outside [%v, %v]", c.TTL, MinTTL, MaxTTL)
	}
	if c.Load, err = parseLoad(c.Service, fields[4:]); err != nil {
		return Command{}, fmt.Errorf("registry: bad command %q: %w", line, err)
	}
	return c, nil
}
