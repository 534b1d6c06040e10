package serve

// ShardEvents gives the external tests shard i's journal, as
// GET /v1/journal serves it.
func (d *Dispatcher) ShardEvents(i int) ([]Event, error) { return d.shardEvents(i) }
