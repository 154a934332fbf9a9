// Golden fixture for the ctx-threading pass: library code must thread
// the caller's context instead of constructing one.
package fixture

import (
	"context"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

func badBackground(pr *query.Prepared, tx *core.Tx) error {
	ctx := context.Background() // want ctx-threading
	return pr.RunCtx(ctx, tx, nil, nil)
}

func badTODO(pr *query.Prepared, tx *core.Tx) error {
	return pr.RunCtx(context.TODO(), tx, nil, nil) // want ctx-threading
}

func good(ctx context.Context, pr *query.Prepared, tx *core.Tx) error {
	return pr.RunCtx(ctx, tx, nil, nil)
}

//poseidonlint:ignore ctx-threading fixture stand-in for a connection-root context
func annotatedRoot(pr *query.Prepared, tx *core.Tx) error {
	return pr.RunCtx(context.Background(), tx, nil, nil)
}
