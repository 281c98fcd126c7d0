package obs

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerClosesSlowLoris shows the listener timeouts at work: NewServer
// sets both, and a connection that sends part of its request headers and
// then stalls is closed by the server once ReadHeaderTimeout passes, while a
// well-formed request is still answered. The test shortens the header
// timeout so that it need not wait the production one out.
func TestServerClosesSlowLoris(t *testing.T) {
	srv := NewServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout {
		t.Fatalf("NewServer timeouts: header %v, idle %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, ReadHeaderTimeout, IdleTimeout)
	}
	const headerTimeout = 100 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: bofl\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	// The headers are never finished. Our own deadline is far past the
	// server's, so a timeout here means the server kept the connection.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server held a stalled header open for %v", time.Since(start))
	}
	if waited := time.Since(start); waited < headerTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, headerTimeout)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("well-formed request: body %q, err %v", body, err)
	}
}
