package registry

import (
	"strings"
	"testing"
	"time"

	"servicebroker/internal/broker"
)

func TestParseCommandHardening(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
		want Command
	}{
		{
			name: "register",
			line: "REGISTER search 127.0.0.1:7101 3000 4 16 2 cool",
			ok:   true,
			want: Command{
				Verb: VerbRegister, Service: "search", Addr: "127.0.0.1:7101",
				TTL:  3 * time.Second,
				Load: broker.LoadReport{Service: "search", Outstanding: 4, Threshold: 16, QueueLen: 2},
			},
		},
		{
			name: "renew hot",
			line: "RENEW search 127.0.0.1:7101 250 16 16 9 hot",
			ok:   true,
			want: Command{
				Verb: VerbRenew, Service: "search", Addr: "127.0.0.1:7101",
				TTL:  250 * time.Millisecond,
				Load: broker.LoadReport{Service: "search", Outstanding: 16, Threshold: 16, QueueLen: 9, Hot: true},
			},
		},
		{
			name: "deregister",
			line: "DEREGISTER search 127.0.0.1:7101",
			ok:   true,
			want: Command{Verb: VerbDeregister, Service: "search", Addr: "127.0.0.1:7101"},
		},
		{
			name: "ipv6 addr",
			line: "REGISTER search [::1]:7101 3000 0 16 0 cool",
			ok:   true,
			want: Command{
				Verb: VerbRegister, Service: "search", Addr: "[::1]:7101",
				TTL:  3 * time.Second,
				Load: broker.LoadReport{Service: "search", Threshold: 16},
			},
		},
		{
			name: "register with admin",
			line: "REGISTER search 127.0.0.1:7101 3000 4 16 2 cool admin=127.0.0.1:9101",
			ok:   true,
			want: Command{
				Verb: VerbRegister, Service: "search", Addr: "127.0.0.1:7101",
				TTL:       3 * time.Second,
				Load:      broker.LoadReport{Service: "search", Outstanding: 4, Threshold: 16, QueueLen: 2},
				AdminAddr: "127.0.0.1:9101",
			},
		},
		{
			name: "renew with ipv6 admin",
			line: "RENEW search 127.0.0.1:7101 250 16 16 9 hot admin=[::1]:9101",
			ok:   true,
			want: Command{
				Verb: VerbRenew, Service: "search", Addr: "127.0.0.1:7101",
				TTL:       250 * time.Millisecond,
				Load:      broker.LoadReport{Service: "search", Outstanding: 16, Threshold: 16, QueueLen: 9, Hot: true},
				AdminAddr: "[::1]:9101",
			},
		},
		{name: "admin missing prefix", line: "REGISTER search 127.0.0.1:7101 3000 4 16 2 cool 127.0.0.1:9101"},
		{name: "admin bad addr", line: "REGISTER search 127.0.0.1:7101 3000 4 16 2 cool admin=127.0.0.1"},
		{name: "admin empty", line: "REGISTER search 127.0.0.1:7101 3000 4 16 2 cool admin="},
		{name: "admin on deregister", line: "DEREGISTER search 127.0.0.1:7101 admin=127.0.0.1:9101"},
		{name: "two admin fields", line: "REGISTER search 127.0.0.1:7101 3000 4 16 2 cool admin=127.0.0.1:9101 admin=127.0.0.1:9102"},
		{name: "empty", line: ""},
		// The load fields a lease carries, parsed through RENEW.
		{
			name: "load",
			line: "RENEW db 127.0.0.1:7101 3000 3 20 1 hot",
			ok:   true,
			want: Command{Verb: VerbRenew, Service: "db", Addr: "127.0.0.1:7101", TTL: 3 * time.Second,
				Load: broker.LoadReport{Service: "db", Outstanding: 3, Threshold: 20, QueueLen: 1, Hot: true}},
		},
		{
			// Extra whitespace between fields is tolerated (strings.Fields),
			// and the result is identical to the canonical spelling.
			name: "load whitespace",
			line: "  RENEW   db 127.0.0.1:7101\t3000  3\t20 1   hot ",
			ok:   true,
			want: Command{Verb: VerbRenew, Service: "db", Addr: "127.0.0.1:7101", TTL: 3 * time.Second,
				Load: broker.LoadReport{Service: "db", Outstanding: 3, Threshold: 20, QueueLen: 1, Hot: true}},
		},
		{name: "unknown verb", line: "SAVE db 3 20 1 hot"},
		{name: "load is an unknown verb", line: "LOAD db 3 20 1 hot"},
		{name: "load too few fields", line: "RENEW db 127.0.0.1:7101 3000 3 20 hot"},
		{name: "load too many fields", line: "RENEW db 127.0.0.1:7101 3000 3 20 1 hot extra"},
		{name: "load with addr", line: "RENEW db 127.0.0.1:7101 3 20 1 hot"}, // an address but no TTL
		{name: "load negative outstanding", line: "RENEW db 127.0.0.1:7101 3000 -3 20 1 hot"},
		{name: "load signed threshold", line: "RENEW db 127.0.0.1:7101 3000 3 +20 1 hot"},
		{name: "load non-numeric queuelen", line: "RENEW db 127.0.0.1:7101 3000 3 20 z hot"},
		{name: "load overflow", line: "RENEW db 127.0.0.1:7101 3000 3 99999999999999999999 1 hot"},
		{name: "load counter above cap", line: "RENEW db 127.0.0.1:7101 3000 3 2000000000 1 hot"},
		{name: "load unknown state", line: "RENEW db 127.0.0.1:7101 3000 3 20 1 tepid"},
		{name: "load state case", line: "RENEW db 127.0.0.1:7101 3000 3 20 1 HOT"},
		{name: "load control bytes in name", line: "RENEW d\x01b 127.0.0.1:7101 3000 3 20 1 hot"},
		{name: "load oversized name", line: "RENEW " + strings.Repeat("x", 200) + " 127.0.0.1:7101 3000 3 20 1 hot"},
		{name: "load oversized line", line: "RENEW db 127.0.0.1:7101 3000 3 20 1 hot" + strings.Repeat(" ", 600)},
		{name: "lowercase verb", line: "register search 127.0.0.1:7101 3000 0 16 0 cool"},
		{name: "missing field", line: "REGISTER search 127.0.0.1:7101 3000 0 16 cool"},
		{name: "extra field", line: "REGISTER search 127.0.0.1:7101 3000 0 16 0 cool x"},
		{name: "deregister extra field", line: "DEREGISTER search 127.0.0.1:7101 cool"},
		{name: "addr without port", line: "REGISTER search 127.0.0.1 3000 0 16 0 cool"},
		{name: "addr trailing colon", line: "REGISTER search 127.0.0.1: 3000 0 16 0 cool"},
		{name: "addr non-numeric port", line: "REGISTER search 127.0.0.1:x 3000 0 16 0 cool"},
		{name: "addr too long", line: "REGISTER search " + strings.Repeat("a", maxMemberAddr) + ":1 3000 0 16 0 cool"},
		{name: "service too long", line: "REGISTER " + strings.Repeat("s", maxServiceName+1) + " 127.0.0.1:7101 3000 0 16 0 cool"},
		{name: "service control bytes", line: "REGISTER s\x01vc 127.0.0.1:7101 3000 0 16 0 cool"},
		{name: "ttl zero", line: "REGISTER search 127.0.0.1:7101 0 0 16 0 cool"},
		{name: "ttl below floor", line: "REGISTER search 127.0.0.1:7101 9 0 16 0 cool"},
		{name: "ttl above cap", line: "REGISTER search 127.0.0.1:7101 600001 0 16 0 cool"},
		{name: "ttl negative", line: "REGISTER search 127.0.0.1:7101 -3000 0 16 0 cool"},
		{name: "ttl signed", line: "REGISTER search 127.0.0.1:7101 +3000 0 16 0 cool"},
		{name: "counter negative", line: "REGISTER search 127.0.0.1:7101 3000 -1 16 0 cool"},
		{name: "counter huge", line: "REGISTER search 127.0.0.1:7101 3000 1073741825 16 0 cool"},
		{name: "counter float", line: "REGISTER search 127.0.0.1:7101 3000 1.5 16 0 cool"},
		{name: "bad state", line: "REGISTER search 127.0.0.1:7101 3000 0 16 0 warm"},
		{name: "oversized line", line: "REGISTER search 127.0.0.1:7101 3000 0 16 0 cool" + strings.Repeat(" ", maxCommandLine)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseCommand(tc.line)
			if tc.ok {
				if err != nil {
					t.Fatalf("ParseCommand(%q): unexpected error %v", tc.line, err)
				}
				if got != tc.want {
					t.Fatalf("ParseCommand(%q) = %+v, want %+v", tc.line, got, tc.want)
				}
			} else if err == nil {
				t.Fatalf("ParseCommand(%q) accepted garbage: %+v", tc.line, got)
			}
		})
	}
}

func TestFormatCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{Verb: VerbRegister, Service: "search", Addr: "127.0.0.1:7101", TTL: 3 * time.Second,
			Load: broker.LoadReport{Service: "search", Outstanding: 4, Threshold: 16, QueueLen: 2, Hot: true}},
		{Verb: VerbRenew, Service: "cart", Addr: "[::1]:9", TTL: MinTTL,
			Load: broker.LoadReport{Service: "cart", Threshold: 1}},
		{Verb: VerbRegister, Service: "search", Addr: "127.0.0.1:7101", TTL: 3 * time.Second,
			Load:      broker.LoadReport{Service: "search", Outstanding: 1, Threshold: 16},
			AdminAddr: "127.0.0.1:9101"},
		{Verb: VerbDeregister, Service: "cart", Addr: "10.0.0.2:7102"},
		{Verb: VerbRenew, Service: "db", Addr: "127.0.0.1:7101", TTL: MaxTTL, Load: broker.LoadReport{Service: "db"}},
		{Verb: VerbRenew, Service: "cgi-bin", Addr: "127.0.0.1:7101", TTL: time.Second,
			Load: broker.LoadReport{Service: "cgi-bin", Outstanding: 7, Threshold: 20, QueueLen: 3, Hot: true}},
		{Verb: VerbRenew, Service: "x", Addr: "127.0.0.1:7101", TTL: time.Second,
			Load: broker.LoadReport{Service: "x", Outstanding: maxCounter, Threshold: maxCounter, QueueLen: maxCounter}},
	}
	for _, c := range cmds {
		line := FormatCommand(c)
		got, err := ParseCommand(line)
		if err != nil {
			t.Fatalf("ParseCommand(FormatCommand(%+v)) = %q: %v", c, line, err)
		}
		if got != c {
			t.Fatalf("round trip: got %+v, want %+v (line %q)", got, c, line)
		}
	}
}

// FuzzParseCommand drives the datagram parser with arbitrary bytes: it must
// never panic, and any line it accepts must survive a format → parse round
// trip unchanged (so the pool and admission only ever see values a broker
// could have sent).
func FuzzParseCommand(f *testing.F) {
	f.Add("REGISTER search 127.0.0.1:7101 3000 4 16 2 cool")
	f.Add("RENEW search [::1]:7101 250 16 16 9 hot")
	f.Add("DEREGISTER search 127.0.0.1:7101")
	f.Add("REGISTER search 127.0.0.1:7101 3000 4 16 2 cool admin=127.0.0.1:9101")
	f.Add("RENEW search 127.0.0.1:7101 250 16 16 9 hot admin=[::1]:9101")
	f.Add("REGISTER s :1 10 0 0 0 cool")
	f.Add("RENEW search 127.0.0.1:7101 3000 1 16 0 cool")
	f.Add("LOAD db 3 20 1 hot")
	f.Add("RENEW cgi 127.0.0.1:7101 3000 0 0 0 cool")
	f.Add(FormatCommand(Command{Verb: VerbRenew, Service: "mail", Addr: "127.0.0.1:7101", TTL: time.Second,
		Load: broker.LoadReport{Service: "mail", Outstanding: 19, Threshold: 20, QueueLen: 64, Hot: true}}))
	f.Add("RENEW db 127.0.0.1:7101 3000 -3 20 1 hot")
	f.Add("RENEW db 127.0.0.1:7101 3000 3 99999999999999999999 1 hot")
	f.Add("NOISE not a report")
	f.Add("RENEW  db\t127.0.0.1:7101 3000 3 20 1  cool")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseCommand(line)
		if err != nil {
			return
		}
		if c.Load.Outstanding < 0 || c.Load.Threshold < 0 || c.Load.QueueLen < 0 {
			t.Fatalf("accepted negative counters: %+v from %q", c, line)
		}
		again, err := ParseCommand(FormatCommand(c))
		if err != nil {
			t.Fatalf("re-parse of formatted %+v failed: %v", c, err)
		}
		if again != c {
			t.Fatalf("round trip mismatch: %+v != %+v", again, c)
		}
	})
}
