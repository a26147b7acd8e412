"""Seeded R007 violations reached from ``asyncio.Protocol`` callbacks.

The event loop calls a protocol's methods directly, so every method of a
``serve/`` class derived from one of asyncio's protocol classes is an
entry point, like an ``async def``: directly, through an imported base,
and through a linted subclass.  A ``typing.Protocol`` and a plain class
with the same method names are controls.
"""

import asyncio
import time
from asyncio import BaseProtocol
from typing import Protocol


def _throttle():
    time.sleep(0.01)


class LineProtocol(asyncio.Protocol):
    def data_received(self, data):
        self._answer(data)

    def _answer(self, data):
        _throttle()


class QuietProtocol(BaseProtocol):
    def connection_lost(self, exc):
        with open(self.path) as fh:
            fh.read()


class DerivedProtocol(LineProtocol):
    def eof_received(self):
        time.sleep(0.01)


class Shape(Protocol):
    def data_received(self, data):
        time.sleep(0.01)


class PlainHandler:
    def data_received(self, data):
        time.sleep(0.01)
