package paramedir

// CollectOffsets exposes the hot-range walk to the external fuzz test.
var CollectOffsets = collectOffsets
