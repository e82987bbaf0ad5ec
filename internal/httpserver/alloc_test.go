package httpserver

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"testing"
)

// CI's bench-smoke job runs these as an alloc-regression gate.

// respondPayload and respondShaped stand in for the front end's respond: a
// payload and the broker's disposition headers.
var respondPayload = []byte("id=12345 name=record-12345\n")

func respondShaped(*Request) *Response {
	resp := NewResponse(200, respondPayload)
	resp.Header["x-fidelity"] = "cached"
	resp.Header["x-broker-status"] = "ok"
	return resp
}

func allocServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Handle("/db", respondShaped)
	return srv
}

// TestRoundTripAllocs pins a keep-alive Get of the benchmark's query shape,
// client and server together.
func TestRoundTripAllocs(t *testing.T) {
	srv := allocServer(t)
	cli := NewClient(srv.Addr().String(), WithPersistent(1))
	defer cli.Close()
	query := map[string]string{"q": "SELECT id, name FROM records WHERE id = 12345", "qos": "1"}
	get := func() {
		if _, err := cli.Get("/db", query); err != nil {
			t.Fatal(err)
		}
	}
	get()
	avg := testing.AllocsPerRun(200, get)
	t.Logf("%v allocations per round trip", avg)
	if avg > 20 {
		t.Fatalf("keep-alive round trip allocates %v, want <= 20", avg)
	}
}

// TestServerAllocs pins the server's share of the same request: fixed request
// bytes in, a reply of known length read back, no client code involved.
func TestServerAllocs(t *testing.T) {
	srv := allocServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	request := []byte("GET /db?q=SELECT%20id%2C%20name%20FROM%20records%20WHERE%20id%20%3D%2012345&qos=1 HTTP/1.1\r\nhost: db\r\n\r\n")
	reply := make([]byte, len("HTTP/1.1 200 OK\r\ncontent-length: \r\n"+
		"x-fidelity: cached\r\nx-broker-status: ok\r\n\r\n")+
		len(strconv.Itoa(len(respondPayload)))+len(respondPayload))
	r := bufio.NewReader(conn)
	exchange := func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, reply); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	avg := testing.AllocsPerRun(200, exchange)
	t.Logf("%v allocations per request", avg)
	if avg > 8 {
		t.Fatalf("server allocates %v per request, want <= 8", avg)
	}
}
