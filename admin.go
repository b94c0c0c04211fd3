package privehd

import (
	"context"
	"net"
	"net/http"

	"privehd/internal/admin"
)

// AdminOption configures NewAdminHandler and ServeAdmin.
type AdminOption func(*adminConfig)

type adminConfig struct {
	pprof bool
}

// WithAdminPprof mounts the net/http/pprof profiling handlers under
// /debug/pprof on the admin API, behind the same bearer token as every
// other admin endpoint. Profiles leak internals — heap contents, model
// names, goroutine stacks — so they are never mounted on the public serve
// listener or the unauthenticated metrics listener; the admin plane is the
// only place they exist.
func WithAdminPprof() AdminOption {
	return func(c *adminConfig) { c.pprof = true }
}

// NewAdminHandler builds the HTTP management plane around a manager: a
// bearer-token-authenticated JSON API to upload model versions, activate
// and roll them back, set the default, deregister, and list models with
// durable version history and live served counters. Every mutation goes
// through the manager, so it is committed to the store before the registry
// serves it. The token must be non-empty — an unauthenticated management
// plane would let anyone replace served models.
//
// Endpoints, all under "Authorization: Bearer <token>":
//
//	GET    /v1/models                  list models
//	GET    /v1/models/{name}           one model's status
//	POST   /v1/models/{name}/versions  upload a Save blob (?activate=false stages)
//	POST   /v1/models/{name}/activate  activate ?version=N
//	POST   /v1/models/{name}/rollback  back to the previous version
//	POST   /v1/models/{name}/default   make {name} the default
//	DELETE /v1/models/{name}           deregister and delete
//	GET    /v1/debug/requests          flight recorder: slowest + errored requests
//	GET    /metrics                    Prometheus/OpenMetrics exposition (no token)
//	GET    /debug/pprof/...            profiling, only with WithAdminPprof
func NewAdminHandler(m *Manager, token string, opts ...AdminOption) (http.Handler, error) {
	var cfg adminConfig
	for _, o := range opts {
		o(&cfg)
	}
	var hopts []admin.HandlerOption
	if cfg.pprof {
		hopts = append(hopts, admin.WithPprof())
	}
	return admin.NewHandler(m, token, 0, hopts...)
}

// ServeAdmin hosts the management plane on lis until ctx is cancelled,
// shutting down gracefully (in-flight requests finish). It returns nil
// after a clean stop. Run it beside ServeRegistry: the registry listener
// is the data plane, this is the control plane.
func ServeAdmin(ctx context.Context, lis net.Listener, m *Manager, token string, opts ...AdminOption) error {
	h, err := NewAdminHandler(m, token, opts...)
	if err != nil {
		return err
	}
	return admin.Serve(ctx, lis, h)
}
