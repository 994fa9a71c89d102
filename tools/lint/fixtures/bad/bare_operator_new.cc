// expect: bare-allocation
// Known-bad: raw operator new/delete, which the `new T` pattern does not
// see (the word is followed by a parenthesis, like placement new).
#include <cstddef>
#include <new>

void* CopyBlock(std::size_t bytes) { return ::operator new(bytes); }

void FreeBlock(void* block) { ::operator delete(block); }
