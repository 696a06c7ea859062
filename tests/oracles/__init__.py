"""Reference implementations kept only to cross-check the library.

Each module here is the straightforward version of a kernel the library
has since replaced with a faster one; tests hold the library to it.
"""
