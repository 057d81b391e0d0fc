package transport

// Stream test helpers shared with the external test package, whose
// tests compose shard servers through front.DialFront (front imports
// transport, so those tests cannot live in this package).
var (
	StreamBatch   = streamBatch
	CollectStream = collectStream
)
