package obs

import (
	"net/http"
	"time"
)

// Listener timeouts of every HTTP server in the repository: the FL client
// daemon, the FL server's admin and check-in listeners, and ServePprof. A
// peer has ReadHeaderTimeout to finish its request headers, so a connection
// that trickles them (a slow-loris client) is closed instead of held open,
// and a kept-alive connection is closed after IdleTimeout without a request.
// No read or write timeout is set: a round body on a slow link or a pprof
// profile may take longer than any fixed bound, and the codec's decode caps
// bound what a body can cost.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer returns an http.Server serving h on addr with the listener
// timeouts.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
