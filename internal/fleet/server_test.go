package fleet

import (
	"testing"

	"websnap/internal/testutil/conntest"
)

// TestAcceptAfterCloseIsRefused: a connection the listener yields after
// Close has waited for the registry server's connections must not be
// served, since nothing would close it. Serve closes it and returns.
func TestAcceptAfterCloseIsRefused(t *testing.T) {
	srv := NewRegistryServer(NewRegistry(RegistryOptions{}), nil)
	conntest.AcceptAfterClose(t, srv.Serve, srv.Close)
}
